import numpy as np
import pytest

from isacsim import cancel, kernels, ofdm
from isacsim.cancel import (
    NLMS_PASSES,
    NLMS_STEP,
    CancellatorState,
    LeakageChannel,
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

    def test_all_zero_taps_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            LeakageChannel(np.zeros(3, dtype=complex))


class TestFirstStage:
    def test_pure_leakage_attenuated(self):
        rng = np.random.default_rng(3)
        sig = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out = first_stage(sig)
        assert db(avg_power(sig) / avg_power(out)) == pytest.approx(12.0, abs=0.1)


@pytest.fixture
def noiseless(monkeypatch):
    """Calibrate against the coupling alone: a -inf dBm floor is zero noise."""
    monkeypatch.setattr(cancel, "DEFAULT_NOISE_FLOOR_DBM", -np.inf)
    return monkeypatch


class TestCalibrate:
    def test_single_tap_closed_form(self, noiseless):
        noiseless.setattr(cancel, "DEFAULT_FIRST_STAGE_DB", 0.0)
        leak = LeakageChannel(np.array([0.1 * np.exp(1j * np.pi / 4)]))
        out = calibrate(tx_burst(), leak, np.random.default_rng(0))
        assert out.analog_delay == 0
        assert out.analog_tap == pytest.approx(
            -0.1 * np.exp(1j * np.pi / 4), rel=1e-6
        )
        analog_row = [r for r in out.log if r[1] == "analog"][0]
        assert analog_row[2] <= -60.0

    def test_three_tap_digital_gain(self, noiseless):
        noiseless.setattr(cancel, "NLMS_PASSES", 8)
        leak = make_leakage(np.random.default_rng(7))
        out = calibrate(tx_burst(), leak, np.random.default_rng(1))
        stages = {name: res for _, name, res in out.log}
        assert stages["first_stage"] == pytest.approx(-12.0, abs=0.1)
        assert stages["digital"] <= stages["analog"] - 25.0

    def test_log_stages_on_dummy_load(self):
        _, _, state, _, _ = calibrated_scene(seed=5)
        assert [e[1] for e in state.log] == ["first_stage", "analog", "digital"]
        assert all(len(e) == 3 and e[0] == 0.0 for e in state.log)
        assert state.log[0][2] == pytest.approx(-12.0, abs=0.2)

    def test_lms_matches_wiener(self, noiseless):
        noiseless.setattr(cancel, "NLMS_PASSES", 200)
        leak = make_leakage(np.random.default_rng(11))
        tx = tx_burst()
        out = calibrate(tx, leak, np.random.default_rng(2))
        scale = 10 ** (-12.0 / 20.0)
        post_analog = kernels.fir_apply(tx, leak.taps) * scale
        post_analog += out.analog_tap * delayed(tx, out.analog_delay)
        w_ls = wiener_fir(tx, post_analog, len(out.digital_taps))
        rel = np.linalg.norm(out.digital_taps - w_ls) / np.linalg.norm(w_ls)
        assert rel <= 1e-3

    def test_short_fir_rejected(self, monkeypatch):
        monkeypatch.setattr(cancel, "DEFAULT_DIGITAL_TAPS", 2)
        leak = make_leakage(np.random.default_rng(0))
        with pytest.raises(ValueError):
            calibrate(tx_burst(), leak, np.random.default_rng(0))

    @pytest.mark.parametrize("bad, problem", [
        (np.zeros(0, dtype=complex), "non-empty"),
        (np.zeros(960, dtype=complex), "all be zero"),
        (np.where(np.arange(960) == 5, np.nan, 1.0 + 0.5j), "finite"),
    ])
    def test_degenerate_reference_rejected(self, bad, problem):
        leak = make_leakage(np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"tx_ref must .*{problem}"):
            calibrate(bad, leak, np.random.default_rng(0))


def scanned_analog_stage(ref, rx, n_taps):
    """The alignment scan as a plain loop over every delay: the oracle for
    ``calibrate``'s analog stage. Returns (delay, tap, residual)."""
    best = None
    for delay in range(n_taps):
        shifted = cancel._delayed(ref, delay)
        denom = np.vdot(shifted, shifted).real
        if denom == 0.0:
            continue
        tap = -np.vdot(shifted, rx) / denom
        residual = rx + tap * shifted
        p = avg_power(residual)
        if best is None or p < best[0]:
            best = (p, delay, tap, residual)
    return best[1:]


class TestAnalogScan:
    @staticmethod
    def check_against_scan(tx, seed):
        # calibrate's first draw from its rng is the reception noise, so
        # the same seed rebuilds its reception here
        leak = make_leakage(np.random.default_rng([seed, 1]))
        state = calibrate(tx, leak, np.random.default_rng([seed, 2]))
        rx = first_stage(kernels.fir_apply(tx, leak.taps)) + complex_noise(
            len(tx), cancel.DEFAULT_NOISE_FLOOR_DBM,
            np.random.default_rng([seed, 2]))
        delay, tap, residual = scanned_analog_stage(
            tx, rx, cancel.DEFAULT_DIGITAL_TAPS)
        assert state.analog_delay == delay
        assert state.analog_tap == tap
        assert state.log[1][2] == db(avg_power(residual)
                                     / avg_power(kernels.fir_apply(tx, leak.taps)))
        np.testing.assert_array_equal(state.digital_taps, kernels.nlms_fir(
            tx, residual, cancel.DEFAULT_DIGITAL_TAPS, mu=NLMS_STEP,
            n_passes=NLMS_PASSES))
        return delay

    def test_matches_plain_scan_bit_for_bit(self):
        tx = tx_burst()
        delays = {self.check_against_scan(tx, seed) for seed in range(50)}
        assert delays == {1}

    def test_leading_zero_run(self):
        # a reference whose first 20 samples are silent
        tx = np.concatenate([np.zeros(20, dtype=complex), tx_burst()[:-20]])
        assert self.check_against_scan(tx, 3) == 1

    def test_short_reference_skips_empty_delays(self):
        # a 6-sample reference leaves delays 6..15 with no energy
        tx = tx_burst()[100:106]
        self.check_against_scan(tx, 4)


class TestDigitalCancel:
    def test_exact_model_match(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        taps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rx = kernels.fir_apply(ref, taps)
        state = CancellatorState(0.0, 0, taps, [])
        out = digital_cancel(rx, ref, state)
        assert db(avg_power(out) / avg_power(rx)) <= -80.0

    def test_zero_in_zero_out(self):
        state = CancellatorState(0.0, 0, np.zeros(16, dtype=complex), [])
        out = digital_cancel(np.zeros(32, dtype=complex), np.zeros(32), state)
        assert np.all(out == 0)


def calibrated_scene(seed=0, reflection_delay=6, reflection_dbm=None):
    """Dummy-load calibration followed by a live receive-port array."""
    rng = np.random.default_rng(seed)
    tx = tx_burst()
    leak = make_leakage(rng)
    state = calibrate(tx, leak, rng)
    refl = (
        reflection_of(tx, reflection_delay, reflection_dbm)
        if reflection_dbm is not None
        else None
    )
    rx = receive_port(tx, leak, rng, reflection=refl)
    return tx, leak, state, rx, refl


def live_readapted(rx, tx, state):
    """Ablation: the digital FIR re-adapted by NLMS on the live preamble.

    The taps start from the dummy-load fit and see only the first
    ``CFG.preamble_len`` samples of ``rx``; they serve this call only.
    """
    span = min(CFG.preamble_len, len(tx))
    taps = kernels.nlms_fir(
        tx[:span], rx[:span], len(state.digital_taps), mu=NLMS_STEP,
        n_passes=NLMS_PASSES, taps_init=state.digital_taps,
    )
    return rx - kernels.fir_apply(tx, taps)


class TestPipeline:
    def test_default_budget_lands_at_noise_floor(self):
        tx, leak, state, _, _ = calibrated_scene(seed=1)
        coupling = kernels.fir_apply(tx, leak.taps)
        noise = complex_noise(len(tx), -85.0, np.random.default_rng(1))
        # the stages are linear: run them on the coupling alone per stage
        stage1 = first_stage(coupling)
        stage2 = analog_cancel(stage1, tx, state)
        leak_out = separator_pipeline(stage1, tx, state)
        out = separator_pipeline(stage1 + noise, tx, state)

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
        base = separator_pipeline(rx, tx, state)
        with_echo = separator_pipeline(rx + echo, tx, state)
        np.testing.assert_allclose(
            with_echo - base, echo, rtol=0, atol=1e-12 * np.max(np.abs(rx))
        )

    def test_reflection_preserved_frozen_vs_ablation(self):
        tx, leak, state, rx, refl = calibrated_scene(
            seed=2, reflection_delay=6, reflection_dbm=-60.0
        )
        out = separator_pipeline(rx, tx, state)

        def refl_gain_db(resid):
            g = np.vdot(refl, resid) / np.vdot(refl, refl).real
            return db(np.abs(g) ** 2)

        assert abs(refl_gain_db(out)) <= 1.0

        # ablation: re-adapt the FIR on the live signal instead of the
        # dummy-load fit; the echo is now inside the adaptation signal
        out_ablate = live_readapted(analog_cancel(rx, tx, state), tx, state)
        assert refl_gain_db(out_ablate) <= -10.0

    def test_calibration_stays_valid_over_a_minute(self):
        # default coupling is static over a run: one minute later the frozen
        # taps still put the residual at the floor
        tx, leak, state, _, _ = calibrated_scene(seed=3)
        rng = np.random.default_rng(99)
        rx_later = receive_port(tx, leak, rng)
        out = separator_pipeline(rx_later, tx, state)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("template,received", [
        (np.zeros(8, complex), np.ones(8, complex)),
        (np.zeros(0, complex), np.ones(8, complex)),
        (np.ones(8, complex), np.zeros(0, complex)),
        # the template's nonzero samples lie past the end of the reception
        (np.r_[np.zeros(4), np.ones(4)].astype(complex), np.ones(4, complex)),
    ], ids=["all-zero", "empty", "empty-reception", "zero-overlap"])
    def test_degenerate_template_rejected(self, template, received):
        with pytest.raises(ValueError, match="template must not be empty or "
                                             "all zero"):
            template_snr_db(template, received)

    def test_separator_wrecks_remote_packets(self):
        tx, _, state, _, _ = calibrated_scene(seed=4)
        gain = np.sqrt(from_db(-70.0) / avg_power(tx))
        clean, separated = measure_separator_harm(
            tx, state, gain, -85.0, np.random.default_rng(10)
        )
        assert clean == pytest.approx(15.0, abs=1.0)
        assert clean - separated >= 10.0
