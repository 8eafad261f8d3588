import numpy as np
import pytest

from isacsim import kernels, ofdm
from isacsim.cancel import (
    CancellatorState,
    LeakageChannel,
    ProtocolViolation,
    analog_cancel,
    calibrate,
    digital_cancel,
    first_stage,
    make_leakage,
    measure_separator_harm,
    separator_pipeline,
    template_snr_db,
)
from isacsim.ofdm import RadioConfig
from isacsim.sigcore import avg_power, complex_noise, db, from_db

CFG = RadioConfig()


def wiener_fir(ref, desired, n_taps):
    """Closed-form least-squares FIR fit (the convergence oracle)."""
    cols = [
        np.concatenate([np.zeros(j, dtype=complex), ref[: len(ref) - j]])
        for j in range(n_taps)
    ]
    phi = np.stack(cols, axis=1)
    w, *_ = np.linalg.lstsq(phi, desired, rcond=None)
    return w


def delayed(x, d):
    return np.concatenate([np.zeros(d, dtype=complex), x[: len(x) - d]])


def tx_burst(power_dbm=5.0, n_extra=8):
    burst = ofdm.training_burst(CFG, n_extra=n_extra)
    return burst * np.sqrt(from_db(power_dbm) / avg_power(burst))


def reflection_of(tx, delay_samples, power_dbm, phase=0.7):
    gain = np.sqrt(from_db(power_dbm) / avg_power(tx)) * np.exp(1j * phase)
    return gain * delayed(tx, delay_samples)


def receive_port(tx, leak, rng, reflection=None):
    """Behind the front end: isolated coupling + optional echo + noise."""
    rx = first_stage(kernels.fir_apply(tx, leak.taps))
    if reflection is not None:
        rx = rx + reflection
    return rx + complex_noise(len(tx), -85.0, rng)


class TestLeakageChannel:
    def test_energy_matches_budget(self):
        leak = make_leakage(np.random.default_rng(0))
        energy = np.sum(np.abs(leak.taps) ** 2)
        assert db(energy) == pytest.approx(-13.0, abs=1e-9)


class TestFirstStage:
    def test_pure_leakage_attenuated(self):
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out = first_stage(sig)
        assert db(avg_power(sig) / avg_power(out)) == pytest.approx(12.0, abs=0.1)


class TestCalibrate:
    def test_wrong_port_rejected(self):
        state = CancellatorState()
        leak = make_leakage(np.random.default_rng(0))
        with pytest.raises(ProtocolViolation):
            calibrate(state, tx_burst(), leak)

    def test_single_tap_closed_form(self):
        leak = LeakageChannel(np.array([0.1 * np.exp(1j * np.pi / 4)]))
        state = CancellatorState().to_dummy_load()
        out = calibrate(
            state, tx_burst(), leak, noise_floor_dbm=None, isolation_db=0.0
        )
        assert out.analog_delay == 0
        assert out.analog_tap == pytest.approx(
            -0.1 * np.exp(1j * np.pi / 4), rel=1e-6
        )
        analog_row = [r for r in out.log if r[1] == "analog"][0]
        assert analog_row[2] <= -60.0

    def test_zero_leakage_clears_taps(self):
        leak = LeakageChannel(np.zeros(3, dtype=complex) + 0j)
        state = CancellatorState().to_dummy_load()
        out = calibrate(state, tx_burst(), leak, noise_floor_dbm=None)
        assert out.analog_tap == 0.0
        assert np.all(out.digital_taps == 0)
        assert out.calibrated

    def test_three_tap_digital_gain(self):
        rng = np.random.default_rng(7)
        leak = make_leakage(rng)
        state = CancellatorState().to_dummy_load()
        out = calibrate(
            state, tx_burst(), leak, noise_floor_dbm=None, rng=1, n_passes=8
        )
        stages = {name: res for _, name, res, _ in out.log}
        assert stages["first_stage"] == pytest.approx(-12.0, abs=0.1)
        assert stages["digital"] <= stages["analog"] - 25.0

    def test_log_stages_on_dummy_load(self):
        _, _, state, _, _ = calibrated_scene(seed=5)
        assert [e[1] for e in state.log] == ["first_stage", "analog", "digital"]
        assert all(e[3] == "dummy_load" for e in state.log)
        assert state.log[0][2] == pytest.approx(-12.0, abs=0.2)

    def test_lms_matches_wiener(self):
        rng = np.random.default_rng(11)
        leak = make_leakage(rng)
        tx = tx_burst()
        state = CancellatorState().to_dummy_load()
        out = calibrate(
            state, tx, leak, noise_floor_dbm=None, rng=2, n_passes=200
        )
        scale = 10 ** (-12.0 / 20.0)
        post_analog = kernels.fir_apply(tx, leak.taps) * scale
        post_analog += out.analog_tap * delayed(tx, out.analog_delay)
        w_ls = wiener_fir(tx, post_analog, len(out.digital_taps))
        rel = np.linalg.norm(out.digital_taps - w_ls) / np.linalg.norm(w_ls)
        assert rel <= 1e-3

    def test_short_fir_rejected(self):
        leak = make_leakage(np.random.default_rng(0))
        state = CancellatorState(digital_taps=np.zeros(2)).to_dummy_load()
        with pytest.raises(ValueError):
            calibrate(state, tx_burst(), leak)


class TestDigitalCancel:
    def test_uncalibrated_rejected(self):
        rx = np.ones(16, dtype=complex)
        with pytest.raises(ProtocolViolation):
            digital_cancel(rx, rx, CancellatorState())

    def test_exact_model_match(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        taps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rx = kernels.fir_apply(ref, taps)
        state = CancellatorState(digital_taps=taps, calibrated=True)
        out = digital_cancel(rx, ref, state)
        assert db(avg_power(out) / avg_power(rx)) <= -80.0

    def test_zero_in_zero_out(self):
        state = CancellatorState(calibrated=True)
        out = digital_cancel(np.zeros(32, dtype=complex), np.zeros(32), state)
        assert np.all(out == 0)

    def test_adapt_leaves_state_untouched(self):
        tx, _, state, rx, _ = calibrated_scene(seed=5)
        taps = state.digital_taps
        before = taps.copy()
        out = digital_cancel(rx, tx, state, adapt=True,
                             adapt_span=CFG.preamble_len)
        assert state.digital_taps is taps
        np.testing.assert_array_equal(state.digital_taps, before)
        # the re-adapted taps did act on this call
        assert not np.array_equal(out, digital_cancel(rx, tx, state))


def calibrated_scene(seed=0, reflection_delay=6, reflection_dbm=None):
    """Dummy-load calibration followed by a live receive-port array."""
    rng = np.random.default_rng(seed)
    tx = tx_burst()
    leak = make_leakage(rng)
    state = calibrate(
        CancellatorState().to_dummy_load(), tx, leak, rng=rng
    ).to_antenna()
    refl = (
        reflection_of(tx, reflection_delay, reflection_dbm)
        if reflection_dbm is not None
        else None
    )
    rx = receive_port(tx, leak, rng, reflection=refl)
    return tx, leak, state, rx, refl


class TestPipeline:
    def test_pass_through_states(self):
        tx, _, state, rx, _ = calibrated_scene()
        for mode in ("C", "B"):
            out = separator_pipeline(rx, state, mode, tx_ref=tx)
            assert out is rx

    def test_forced_cancellation_is_violation(self):
        tx, _, state, rx, _ = calibrated_scene()
        with pytest.raises(ProtocolViolation):
            separator_pipeline(rx, state, "C", tx_ref=tx, force=True)

    def test_unknown_mode_rejected(self):
        tx, _, state, rx, _ = calibrated_scene()
        with pytest.raises(ValueError):
            separator_pipeline(rx, state, "X", tx_ref=tx)

    def test_uncalibrated_monitoring_rejected(self):
        tx, _, _, rx, _ = calibrated_scene()
        with pytest.raises(ProtocolViolation):
            separator_pipeline(rx, CancellatorState(), "M", tx_ref=tx)

    def test_default_budget_lands_at_noise_floor(self):
        tx, leak, state, _, _ = calibrated_scene(seed=1)
        coupling = kernels.fir_apply(tx, leak.taps)
        noise = complex_noise(len(tx), -85.0, np.random.default_rng(1))
        # the stages are linear: run them on the coupling alone per stage
        stage1 = first_stage(coupling)
        stage2 = analog_cancel(stage1, tx, state)
        leak_out = separator_pipeline(stage1, state, "M", tx_ref=tx)
        out = separator_pipeline(stage1 + noise, state, "M", tx_ref=tx)

        g_first = db(avg_power(coupling) / avg_power(stage1))
        g_analog = db(avg_power(stage1) / avg_power(stage2))
        g_digital = db(avg_power(stage2) / avg_power(leak_out))
        assert g_first == pytest.approx(12.0, abs=0.1)
        assert g_analog >= 35.0
        assert g_digital >= 20.0

        total = db(avg_power(coupling + noise) / avg_power(out))
        assert total >= 70.0
        assert db(avg_power(out)) == pytest.approx(-85.0, abs=3.0)

    def test_echo_passes_by_superposition(self):
        # every stage is linear in rx, so an echo added at the receive port
        # comes out of the separator unchanged
        tx, _, state, rx, _ = calibrated_scene(seed=6)
        echo = reflection_of(tx, 6, -60.0)
        base = separator_pipeline(rx, state, "M", tx_ref=tx)
        with_echo = separator_pipeline(rx + echo, state, "M", tx_ref=tx)
        np.testing.assert_allclose(
            with_echo - base, echo, rtol=0, atol=1e-12 * np.max(np.abs(rx))
        )

    def test_reflection_preserved_frozen_vs_ablation(self):
        tx, leak, state, rx, refl = calibrated_scene(
            seed=2, reflection_delay=6, reflection_dbm=-60.0
        )
        out = separator_pipeline(rx, state, "M", tx_ref=tx)

        def refl_gain_db(resid):
            g = np.vdot(refl, resid) / np.vdot(refl, refl).real
            return db(np.abs(g) ** 2)

        assert abs(refl_gain_db(out)) <= 1.0

        # ablation: re-adapt the FIR on the live signal instead of the
        # dummy-load fit; the echo is now inside the adaptation signal
        stage2 = analog_cancel(rx, tx, state)
        out_ablate = digital_cancel(
            stage2, tx, state, adapt=True, adapt_span=CFG.preamble_len
        )
        assert refl_gain_db(out_ablate) <= -10.0

    def test_calibration_stays_valid_over_a_minute(self):
        # default coupling is static over a run: one minute later the frozen
        # taps still put the residual at the floor
        tx, leak, state, _, _ = calibrated_scene(seed=3)
        rng = np.random.default_rng(99)
        rx_later = receive_port(tx, leak, rng)
        out = separator_pipeline(rx_later, state, "M", tx_ref=tx)
        assert db(avg_power(out)) == pytest.approx(-85.0, abs=3.0)


class TestHarm:
    def test_template_snr_estimator(self):
        rng = np.random.default_rng(9)
        tx = tx_burst(power_dbm=0.0)
        gain = np.sqrt(from_db(-70.0) / avg_power(tx))
        noise = np.sqrt(from_db(-85.0) / 2.0) * (
            rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))
        )
        snr = template_snr_db(tx, gain * tx + noise)
        assert snr == pytest.approx(15.0, abs=1.0)

    def test_separator_wrecks_remote_packets(self):
        tx, _, state, _, _ = calibrated_scene(seed=4)
        gain = np.sqrt(from_db(-70.0) / avg_power(tx))
        clean, separated = measure_separator_harm(
            tx, state, gain, -85.0, np.random.default_rng(10)
        )
        assert clean == pytest.approx(15.0, abs=1.0)
        assert clean - separated >= 10.0
