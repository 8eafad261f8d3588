import numpy as np
import pytest

from isacsim import ofdm
from isacsim.channel import (
    ImpairmentProfile,
    PropagationPath,
    ScenarioGeometry,
    apply_clock_impairments,
    bistatic_projection,
    linear_trajectory,
    los_gain,
    path_gain,
    power_ratio,
    resolve_paths,
    steering_vector,
    synthesize_csi_series,
)
from isacsim.ofdm import SPEED_OF_LIGHT, RadioConfig, extract_csi_symbols
from isacsim.sigcore import avg_power, db


def quarter_wave_cfg():
    # carrier chosen so the wavelength is exactly 12.5 cm
    return RadioConfig(carrier_freq=SPEED_OF_LIGHT / 0.125)


CFG = RadioConfig()


class TestPathGain:
    def test_reference_amplitude(self):
        cfg = quarter_wave_cfg()
        a = path_gain(2.0, 2.0, 1.0, cfg, tx_power=1.0)
        assert a**2 == pytest.approx(4.921e-7, rel=2e-3)
        assert db(a**2) == pytest.approx(-63.1, abs=0.05)

    def test_double_ranges_sixteenth_power(self):
        cfg = quarter_wave_cfg()
        a1 = path_gain(2.0, 2.0, 1.0, cfg)
        a2 = path_gain(4.0, 4.0, 1.0, cfg)
        assert a2**2 / a1**2 == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_zero_rcs_zero_amplitude(self):
        assert path_gain(3.0, 5.0, 0.0, CFG) == 0.0

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 2.0, 1.0, CFG)
        with pytest.raises(ValueError):
            path_gain(2.0, -1.0, 1.0, CFG)

    def test_tx_power_scaling(self):
        a1 = path_gain(2.0, 3.0, 1.0, CFG, tx_power=1.0)
        a4 = path_gain(2.0, 3.0, 1.0, CFG, tx_power=4.0)
        assert a4 == pytest.approx(2.0 * a1, rel=1e-12)


class TestPowerRatio:
    def test_reference_ratio(self):
        assert power_ratio(2.0, 2.0, 2.0, 1.0) == pytest.approx(-20.0, abs=0.1)

    def test_rcs_shift(self):
        base = power_ratio(2.0, 2.0, 2.0, 1.0)
        assert power_ratio(2.0, 2.0, 2.0, 4.0) - base == pytest.approx(6.02, abs=0.01)

    def test_range_product_shift(self):
        base = power_ratio(2.0, 2.0, 2.0, 1.0)
        wider = power_ratio(2.0, 2.0 * np.sqrt(2), 2.0 * np.sqrt(2), 1.0)
        assert wider - base == pytest.approx(-6.02, abs=0.01)

    def test_colocated_rejected(self):
        with pytest.raises(ValueError):
            power_ratio(0.0, 2.0, 2.0, 1.0)

    def test_matches_simulated_amplitudes(self):
        # the direct-path normalization must reproduce the ratio formula
        cfg = quarter_wave_cfg()
        ratio_db = power_ratio(2.0, np.sqrt(5), np.sqrt(5), 1.0)
        a_refl = path_gain(np.sqrt(5), np.sqrt(5), 1.0, cfg)
        a_los = los_gain(2.0, cfg)
        assert db(a_refl**2 / a_los**2) == pytest.approx(ratio_db, abs=1e-9)


class TestBistaticProjection:
    def test_monostatic_radial_step(self):
        dr = bistatic_projection((0, 0, 0), (0, 0, 0), (2, 0, 0), (0.1, 0, 0))
        assert dr == pytest.approx(0.2, abs=1e-12)

    def test_equidistant_offset(self):
        dr = bistatic_projection((0, 0, 0), (2, 0, 0), (1, 1, 0), (0, 0.1, 0))
        assert dr == pytest.approx(2 * (np.sqrt(2.21) - np.sqrt(2)), abs=1e-9)
        assert dr == pytest.approx(0.1448, abs=1e-4)

    def test_tangent_motion_is_flat(self):
        dr = bistatic_projection((0, 0, 0), (0, 0, 0), (2, 0, 0), (0, 1e-6, 0))
        assert abs(dr) < 1e-9
        dr2 = bistatic_projection((0, 0, 0), (2, 0, 0), (1, 1, 0), (1e-6, 0, 0))
        assert abs(dr2) < 1e-9

    def test_degenerate_position_rejected(self):
        with pytest.raises(ValueError):
            bistatic_projection((0, 0, 0), (2, 0, 0), (0, 0, 0), (0.1, 0, 0))
        with pytest.raises(ValueError):
            bistatic_projection((0, 0, 0), (2, 0, 0), (1.9, 0, 0), (0.1, 0, 0))


class TestTrajectories:
    def test_linear_positions(self):
        traj = linear_trajectory((1, 2, 0), (0.5, 0, 0))
        assert traj(2.0) == pytest.approx([2.0, 2.0, 0.0])
        pos = traj(np.array([0.0, 1.0]))
        assert pos.shape == (2, 3)
        assert pos[1] == pytest.approx([1.5, 2.0, 0.0])


class TestImpairmentProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImpairmentProfile(cpo=6.3)
        with pytest.raises(ValueError):
            ImpairmentProfile(sfo=2e-3)

    def test_sampled_profiles_in_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            imp = ImpairmentProfile.sample(CFG, rng)
            assert abs(imp.cfo_hz) <= 20e-6 * CFG.carrier_freq
            assert abs(imp.sfo) <= 20e-6
            assert 0.0 <= imp.cpo < 2 * np.pi
            assert 0.0 <= imp.pdd_extra < 1.0

    def test_monostatic_profile(self):
        imp = ImpairmentProfile.monostatic(cpo=0.7)
        assert imp.cfo_hz == 0.0 and imp.sfo == 0.0 and imp.pdd_extra == 0.0
        assert imp.cpo == 0.7


class TestResolvePaths:
    def test_direct_path_prepended_when_separated(self):
        geom = ScenarioGeometry(
            tx_pos=(0, 0, 0), rx_pos=(2, 0, 0),
            targets=(PropagationPath(position=(1, 1, 0)),),
        )
        alpha, delay, aoa = resolve_paths(geom, CFG, [0.0, 0.5])
        assert alpha.shape == delay.shape == aoa.shape == (2, 2)
        np.testing.assert_allclose(delay[0], 2.0 / SPEED_OF_LIGHT)
        np.testing.assert_allclose(alpha[0], los_gain(2.0, CFG))
        np.testing.assert_allclose(np.abs(aoa[0]), 180.0)
        np.testing.assert_allclose(delay[1], 2 * np.sqrt(2) / SPEED_OF_LIGHT)

    def test_no_direct_path_when_colocated(self):
        geom = ScenarioGeometry(
            targets=(PropagationPath(position=(5, 0, 0)),)
        )
        alpha, delay, aoa = resolve_paths(geom, CFG, [0.0])
        assert delay.shape == (1, 1)
        assert delay[0, 0] == pytest.approx(10.0 / SPEED_OF_LIGHT)

    def test_underspecified_path_rejected(self):
        geom = ScenarioGeometry(targets=(PropagationPath(delay=1e-8),))
        with pytest.raises(ValueError):
            resolve_paths(geom, CFG, [0.0])

    def test_position_must_be_three_vector(self):
        # a scalar would otherwise broadcast to the point (5, 5, 5)
        for bad in (5.0, (5.0, 1.0)):
            with pytest.raises(ValueError, match="3-vector"):
                PropagationPath(position=bad)

    @pytest.mark.parametrize("field,value", [
        ("position", (5.0, float("nan"), 0.0)),
        ("delay", float("nan")),
        ("rcs", float("nan")),
        ("amplitude", float("nan")),
        ("amplitude", complex(float("inf"), 0.0)),
        ("aoa_deg", float("inf")),
    ])
    def test_nonfinite_path_rejected(self, field, value):
        kwargs = {"delay": 1e-8, "amplitude": 1e-4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PropagationPath(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("tx_pos", (float("nan"), 0.0, 0.0)),
        ("rx_pos", (0.0, float("inf"), 0.0)),
        ("tx_power_dbm", float("nan")),
        ("tx_power_dbm", float("-inf")),
    ])
    def test_nonfinite_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioGeometry(**{field: value})

    def test_scatterer_on_node_rejected(self):
        geom = ScenarioGeometry(targets=(PropagationPath(position=(0, 0, 0)),))
        with pytest.raises(ValueError):
            resolve_paths(geom, CFG, [0.0])
        # a moving scatterer that passes over the node at one packet time
        crossing = linear_trajectory((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        geom = ScenarioGeometry(targets=(PropagationPath(trajectory=crossing),))
        resolve_paths(geom, CFG, [0.0, 0.5])
        with pytest.raises(ValueError):
            resolve_paths(geom, CFG, [0.0, 0.5, 1.0])

    def test_overrides_apply_to_moving_paths(self):
        traj = linear_trajectory((5.0, 0.0, 0.0), (1.0, 0.5, 0.0))
        times = np.array([0.0, 0.01, 0.02])
        geom = ScenarioGeometry(
            targets=(PropagationPath(trajectory=traj, delay=4e-8, aoa_deg=25.0),),
            n_antennas=2,
        )
        series = synthesize_csi_series(geom, CFG, times)
        # the amplitude still follows the moving geometry
        pos = traj(times)
        r = np.linalg.norm(pos, axis=1)
        alpha = path_gain(r, r, 1.0, CFG, tx_power=10 ** (geom.tx_power_dbm / 10.0))
        core = np.exp(-2j * np.pi * (CFG.carrier_freq + CFG.subcarrier_freqs()) * 4e-8)
        steer = steering_vector(25.0, 2)
        expected = alpha[:, None, None] * steer[None, :, None] * core[None, None, :]
        np.testing.assert_allclose(series, expected, rtol=1e-12)

    @pytest.mark.parametrize("overrides", [
        {},
        {"aoa_deg": -20.0},
        {"delay": 3e-8, "amplitude": 1e-4},
    ])
    def test_stationary_trajectory_matches_position(self, overrides):
        times = np.array([0.0, 0.3, 0.7])
        geom_static = ScenarioGeometry(
            tx_pos=(0, 0, 0), rx_pos=(1.5, 0, 0), n_antennas=3,
            targets=(PropagationPath(position=(3.0, 2.0, 0.0), rcs=2.0,
                                     **overrides),),
        )
        geom_still = ScenarioGeometry(
            tx_pos=(0, 0, 0), rx_pos=(1.5, 0, 0), n_antennas=3,
            targets=(PropagationPath(
                trajectory=linear_trajectory((3.0, 2.0, 0.0), (0.0, 0.0, 0.0)),
                rcs=2.0, **overrides),),
        )
        np.testing.assert_allclose(
            synthesize_csi_series(geom_still, CFG, times),
            synthesize_csi_series(geom_static, CFG, times),
            rtol=1e-12,
        )


class TestSteering:
    def test_boresight_is_flat(self):
        assert steering_vector(0.0, 3) == pytest.approx(np.ones(3))

    def test_half_wave_thirty_degrees(self):
        v = steering_vector(30.0, 3, spacing_wl=0.5)
        assert v[1] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)
        assert v[2] == pytest.approx(np.exp(-1j * np.pi), abs=1e-12)

    def test_angle_array_broadcasts(self):
        angles = np.array([[-40.0, 0.0], [12.5, 30.0]])
        v = steering_vector(angles, 4, spacing_wl=0.7)
        assert v.shape == (2, 2, 4)
        for idx in np.ndindex(angles.shape):
            np.testing.assert_array_equal(
                v[idx], steering_vector(angles[idx], 4, spacing_wl=0.7)
            )


def one_path_geometry(**path_kwargs):
    return ScenarioGeometry(targets=(PropagationPath(**path_kwargs),))


class TestClockImpairments:
    def test_quarter_cycle_per_symbol(self):
        burst = ofdm.training_burst(CFG, n_extra=4)
        cfo = 0.25 * CFG.subcarrier_spacing * CFG.fft_size
        out = apply_clock_impairments(burst, CFG, ImpairmentProfile(cfo_hz=cfo))
        sym = extract_csi_symbols(out, 0, CFG, n_symbols=6)
        steps = np.angle(np.sum(sym[1:] * np.conj(sym[:-1]), axis=1))
        np.testing.assert_allclose(steps, -np.pi / 2, atol=1e-9)

    def test_full_phase_model(self):
        burst = ofdm.training_burst(CFG, n_extra=6)
        imp = ImpairmentProfile(cfo_hz=37e3, cpo=1.234, sfo=3e-5, pdd_extra=0.4)
        out = apply_clock_impairments(burst, CFG, imp)
        sym = extract_csi_symbols(out, 0, CFG, n_symbols=8)
        n = CFG.fft_size
        step = imp.cfo_hz / (CFG.subcarrier_spacing * n)
        k = CFG.used_bins
        for l in range(8):
            predicted = np.exp(
                -2j * np.pi * (l * step + imp.cpo)
            ) * np.exp(-2j * np.pi * k * (imp.sfo + imp.pdd_extra) / n)
            err = np.angle(sym[l] * np.conj(predicted))
            assert np.max(np.abs(err)) < 1e-6

    def test_colocated_clock_has_no_drift(self):
        burst = ofdm.training_burst(CFG, n_extra=98)
        out = apply_clock_impairments(burst, CFG, ImpairmentProfile.monostatic(0.7))
        sym = extract_csi_symbols(out, 0, CFG, n_symbols=100)
        drift = np.angle(sym * np.conj(sym[0][None, :]))
        assert np.max(np.abs(drift)) < 1e-6

    def test_prefixes_stay_cyclic(self):
        burst = ofdm.training_burst(CFG, n_extra=3)
        imp = ImpairmentProfile(sfo=5e-5, pdd_extra=0.5)
        out = apply_clock_impairments(burst, CFG, imp)
        n, cp = CFG.fft_size, CFG.cyclic_prefix_len
        for start, _, win in ofdm.burst_symbol_spans(CFG, 5)[2:]:
            np.testing.assert_allclose(
                out[start : start + cp],
                out[win + n - cp : win + n],
                atol=1e-12,
            )
        np.testing.assert_allclose(
            out[CFG.stf_len : CFG.ltf_window_offset],
            out[CFG.ltf_window_offset + n // 2 : CFG.ltf_window_offset + n],
            atol=1e-12,
        )

    def test_short_buffer_rejected(self):
        short = np.zeros(100, dtype=np.complex128)
        with pytest.raises(ValueError):
            apply_clock_impairments(short, CFG, ImpairmentProfile())


class TestCsiSeries:
    def test_static_path_closed_form(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        times = np.array([0.0, 0.01, 0.02])
        series = synthesize_csi_series(geom, CFG, times)
        assert series.shape == (3, 1, CFG.n_used)
        tau = 10.0 / SPEED_OF_LIGHT
        alpha = path_gain(
            5.0, 5.0, 1.0, CFG, tx_power=10 ** (geom.tx_power_dbm / 10.0)
        )
        expected = alpha * np.exp(
            -2j * np.pi * (CFG.carrier_freq + CFG.subcarrier_freqs()) * tau
        )
        np.testing.assert_allclose(series[0, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(series[2, 0], expected, rtol=1e-12)

    def test_receding_target_16hz(self):
        geom = one_path_geometry(
            trajectory=linear_trajectory((5.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        )
        times = np.arange(0.0, 0.2, 0.01)
        series = synthesize_csi_series(geom, CFG, times)[:, 0, :]
        z = np.sum(series[1:] * np.conj(series[:-1]), axis=1)
        rate = np.mean(np.angle(z)) / (-2 * np.pi * 0.01)
        assert rate == pytest.approx(2.0 / CFG.wavelength, rel=1e-3)
        assert rate == pytest.approx(16.0, abs=0.1)

    def test_reflected_to_direct_ratio(self):
        tx, rx = (0, 0, 0), (2, 0, 0)
        target = (1.0, 2.0, 0.0)
        geom_los = ScenarioGeometry(tx_pos=tx, rx_pos=rx)
        geom_target = ScenarioGeometry(
            tx_pos=tx,
            rx_pos=rx,
            targets=(PropagationPath(position=target),),
            include_los=False,
        )
        times = np.zeros(1)
        p_los = avg_power(synthesize_csi_series(geom_los, CFG, times))
        p_ref = avg_power(synthesize_csi_series(geom_target, CFG, times))
        expected = power_ratio(2.0, np.sqrt(5.0), np.sqrt(5.0), 1.0)
        assert db(p_ref / p_los) == pytest.approx(expected, abs=0.5)

    def test_noise_scaling(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        times = np.linspace(0.0, 1.0, 200)
        clean = synthesize_csi_series(geom, CFG, times)
        noisy = synthesize_csi_series(geom, CFG, times, snr_db=20.0, rng=3)
        noise_power = avg_power(noisy - clean)
        assert db(avg_power(clean) / noise_power) == pytest.approx(20.0, abs=0.5)

    def test_packet_rotation_from_cfo(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        times = np.array([0.0, 1e-3])
        imp = ImpairmentProfile(cfo_hz=150.0)
        series = synthesize_csi_series(geom, CFG, times, imp=imp)[:, 0, :]
        z = np.mean(series[1] * np.conj(series[0]))
        assert np.angle(z) == pytest.approx(-2 * np.pi * 150.0 * 1e-3, abs=1e-9)

    def test_fixed_phase_when_colocated(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        times = np.array([0.0, 0.5])
        plain = synthesize_csi_series(geom, CFG, times)
        rotated = synthesize_csi_series(
            geom, CFG, times, imp=ImpairmentProfile.monostatic(cpo=0.5)
        )
        np.testing.assert_allclose(
            rotated, plain * np.exp(-2j * np.pi * 0.5), rtol=1e-12
        )

    def test_empty_times_rejected(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            synthesize_csi_series(geom, CFG, [])


class TestPropagate:
    """Propagation through a ScenarioGeometry, as synthesize_csi_series
    computes it for each packet, antenna and subcarrier."""

    def test_timing_offset_matches_equivalent_delay(self):
        times = np.array([0.0, 0.01])
        late = synthesize_csi_series(
            one_path_geometry(delay=0.0, amplitude=1.0), CFG, times,
            imp=ImpairmentProfile(pdd_extra=1.0),
        )
        # carrier rotation is a whole number of cycles for a one-sample delay
        shifted = synthesize_csi_series(
            one_path_geometry(delay=1.0 / CFG.sample_rate, amplitude=1.0), CFG, times
        )
        np.testing.assert_allclose(late, shifted, atol=1e-9)

    def test_fifteen_meter_echo_phase_slope(self):
        geom = one_path_geometry(position=(15.0, 0.0, 0.0))
        csi = synthesize_csi_series(geom, CFG, np.zeros(1))[0, 0]
        signed = CFG.signed_index()
        order = np.argsort(signed)
        phases = np.unwrap(np.angle(csi[order]))
        slope = np.polyfit(signed[order], phases, 1)[0]
        expected = -2 * np.pi * CFG.subcarrier_spacing * (30.0 / SPEED_OF_LIGHT)
        assert slope == pytest.approx(expected, rel=1e-2)

    def test_receding_target_rotation_rate(self):
        geom = one_path_geometry(
            trajectory=linear_trajectory((5.0, 0.0, 0.0), (0.2, 0.0, 0.0))
        )
        dt = 0.05
        c0, c1 = synthesize_csi_series(geom, CFG, np.array([0.0, dt]))
        measured = np.angle(np.mean(c1 * np.conj(c0))) / (-2 * np.pi * dt)
        doppler = 2 * 0.2 / CFG.wavelength
        assert measured == pytest.approx(doppler, rel=1e-3)

    def test_array_phase_progression(self):
        geom = ScenarioGeometry(
            targets=(PropagationPath(delay=5e-8, amplitude=1.0, aoa_deg=30.0),),
            n_antennas=3,
        )
        series = synthesize_csi_series(geom, CFG, np.zeros(1))[0]
        assert series.shape == (3, CFG.n_used)
        ratio = np.mean(series[1] / series[0])
        assert ratio == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-9)
        ratio = np.mean(series[2] / series[1])
        assert ratio == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-9)

    def test_derived_arrival_angle(self):
        geom = ScenarioGeometry(
            rx_pos=(0, 0, 0),
            targets=(PropagationPath(position=(3.0, 3.0, 0.0)),),
            n_antennas=2,
        )
        series = synthesize_csi_series(geom, CFG, np.array([0.0, 0.01]))
        assert series.shape == (2, 2, CFG.n_used)
        ratio = series[:, 1, :] / series[:, 0, :]
        np.testing.assert_allclose(
            np.angle(ratio), -np.pi * np.sin(np.radians(45.0)), atol=1e-9
        )

    def test_noise_floor_level_and_determinism(self):
        geom = one_path_geometry(delay=5e-8, amplitude=1.0)
        times = np.linspace(0.0, 1.0, 100)
        clean = synthesize_csi_series(geom, CFG, times)
        a = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=11)
        b = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=11)
        c = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert db(avg_power(a - clean)) == pytest.approx(-30.0, abs=0.3)
