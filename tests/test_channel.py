import numpy as np
import pytest

from isacsim import ofdm
from isacsim.channel import (
    ARRAY_SPACING_WL,
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
from isacsim.sigcore import avg_power, db, from_db


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

    @pytest.mark.parametrize("field", ["cfo_hz", "sfo", "pdd_extra"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_nonfinite_clock_terms_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ImpairmentProfile(**{field: value})

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
        # a path is exactly one of a fixed position or a trajectory
        with pytest.raises(ValueError, match="exactly one"):
            PropagationPath()
        with pytest.raises(ValueError, match="exactly one"):
            PropagationPath(rcs=2.0)
        with pytest.raises(ValueError, match="exactly one"):
            PropagationPath(position=(5.0, 0.0, 0.0), trajectory=(
                linear_trajectory((5.0, 0.0, 0.0), (1.0, 0.0, 0.0))))

    def test_position_must_be_three_vector(self):
        # a scalar would otherwise broadcast to the point (5, 5, 5)
        for bad in (5.0, (5.0, 1.0)):
            with pytest.raises(ValueError, match="3-vector"):
                PropagationPath(position=bad)

    @pytest.mark.parametrize("field,value", [
        ("position", (5.0, float("nan"), 0.0)),
        ("rcs", float("nan")),
    ])
    def test_nonfinite_path_rejected(self, field, value):
        kwargs = {"position": (5.0, 0.0, 0.0), field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PropagationPath(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("tx_pos", (float("nan"), 0.0, 0.0)),
        ("rx_pos", (0.0, float("inf"), 0.0)),
        ("tx_power_dbm", float("nan")),
        ("tx_power_dbm", float("-inf")),
        ("boresight_deg", float("nan")),
    ])
    def test_nonfinite_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioGeometry(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_bad_antenna_count_rejected(self, value):
        with pytest.raises(ValueError,
                           match="n_antennas must be a positive integer"):
            ScenarioGeometry(n_antennas=value)
        assert ScenarioGeometry(n_antennas=np.int64(4)).n_antennas == 4

    @pytest.mark.parametrize("snr_db,velocity", [
        (float("nan"), (1.0, 0.0, 0.0)),
        (float("-inf"), (1.0, 0.0, 0.0)),
        (float("inf"), (1.0, 0.0, 0.0)),
        (None, (float("nan"), 0.0, 0.0)),
    ])
    def test_nonfinite_synthesis_input_rejected(self, snr_db, velocity):
        geom = ScenarioGeometry(targets=(PropagationPath(
            trajectory=linear_trajectory((5.0, 0.0, 0.0), velocity)),))
        with pytest.raises(ValueError, match="must be finite"):
            synthesize_csi_series(geom, CFG, [0.0, 0.01], snr_db=snr_db)

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

    # scene settings over a bistatic three-antenna layout: as is, with the
    # array turned off the baseline, and monostatic, which has no direct path
    @pytest.mark.parametrize("overrides", [
        {},
        {"boresight_deg": 30.0},
        {"rx_pos": (0, 0, 0)},
    ])
    def test_stationary_trajectory_matches_position(self, overrides):
        times = np.array([0.0, 0.3, 0.7])
        scene = {"tx_pos": (0, 0, 0), "rx_pos": (1.5, 0, 0), "n_antennas": 3,
                 **overrides}
        geom_static = ScenarioGeometry(
            targets=(PropagationPath(position=(3.0, 2.0, 0.0), rcs=2.0),),
            **scene,
        )
        geom_still = ScenarioGeometry(
            targets=(PropagationPath(
                trajectory=linear_trajectory((3.0, 2.0, 0.0), (0.0, 0.0, 0.0)),
                rcs=2.0),),
            **scene,
        )
        static = synthesize_csi_series(geom_static, CFG, times)
        np.testing.assert_allclose(
            synthesize_csi_series(geom_still, CFG, times), static, rtol=1e-12)
        # a trajectory that returns one position for all times broadcasts
        # exactly like that fixed position
        geom_constant = ScenarioGeometry(
            targets=(PropagationPath(
                trajectory=lambda t: np.array([3.0, 2.0, 0.0]), rcs=2.0),),
            **scene,
        )
        np.testing.assert_array_equal(
            synthesize_csi_series(geom_constant, CFG, times), static)


class TestSteering:
    def test_boresight_is_flat(self):
        assert steering_vector(0.0, 3) == pytest.approx(np.ones(3))

    def test_half_wave_thirty_degrees(self):
        assert ARRAY_SPACING_WL == 0.5
        v = steering_vector(30.0, 3)
        assert v[1] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)
        assert v[2] == pytest.approx(np.exp(-1j * np.pi), abs=1e-12)

    def test_angle_array_broadcasts(self):
        angles = np.array([[-40.0, 0.0], [12.5, 30.0]])
        v = steering_vector(angles, 4)
        assert v.shape == (2, 2, 4)
        for idx in np.ndindex(angles.shape):
            np.testing.assert_array_equal(
                v[idx], steering_vector(angles[idx], 4)
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
        k = CFG.signed_index()
        for l in range(8):
            predicted = np.exp(
                -2j * np.pi * (l * step + imp.cpo)
            ) * np.exp(-2j * np.pi * k * (imp.sfo + imp.pdd_extra) / n)
            err = np.angle(sym[l] * np.conj(predicted))
            assert np.max(np.abs(err)) < 1e-6

    @pytest.mark.parametrize("fft_size, cp_len", [(64, 16), (33, 8)])
    @pytest.mark.parametrize("d", [0.25, 0.5])
    def test_timing_offset_matches_a_true_fractional_delay(self, fft_size,
                                                           cp_len, d):
        # a band-limited delay of the whole burst by d samples: a zero-padded
        # FFT, a linear phase over signed frequency, and the inverse
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=cp_len)
        burst = ofdm.training_burst(cfg, n_extra=6)
        m = 2 * burst.size
        spec = np.fft.fft(burst, m) * np.exp(-2j * np.pi * np.fft.fftfreq(m) * d)
        delayed = np.fft.ifft(spec)[: burst.size]
        out = apply_clock_impairments(burst, cfg, ImpairmentProfile(pdd_extra=d))
        # the repeats from symbol 2 on are cyclic, so the delay is a pure
        # phase there, on negative-frequency subcarriers as on positive ones
        want = extract_csi_symbols(delayed, 0, cfg, n_symbols=8)[2:]
        got = extract_csi_symbols(out, 0, cfg, n_symbols=8)[2:]
        assert np.max(np.abs(np.angle(got * np.conj(want)))) < 0.1

    def test_colocated_clock_has_no_drift(self):
        burst = ofdm.training_burst(CFG, n_extra=98)
        out = apply_clock_impairments(burst, CFG, ImpairmentProfile.monostatic(0.7))
        sym = extract_csi_symbols(out, 0, CFG, n_symbols=100)
        drift = np.angle(sym * np.conj(sym[0][None, :]))
        assert np.max(np.abs(drift)) < 1e-6

    @pytest.mark.parametrize("fft_size", [16, 32, 33, 64, 128])
    def test_prefixes_stay_cyclic(self, fft_size):
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=fft_size // 4)
        burst = ofdm.training_burst(cfg, n_extra=3)
        imp = ImpairmentProfile(sfo=5e-5, pdd_extra=0.5)
        out = apply_clock_impairments(burst, cfg, imp)
        assert np.max(np.abs(out - burst)) > 1e-3
        n, cp = fft_size, cfg.cyclic_prefix_len
        for win, start in ofdm.burst_symbol_spans(cfg, 5)[2:]:
            np.testing.assert_allclose(
                out[start : start + cp],
                out[win + n - cp : win + n],
                atol=1e-12,
            )
        np.testing.assert_allclose(
            out[cfg.stf_len : cfg.ltf_window_offset],
            out[cfg.ltf_window_offset + n // 2 : cfg.ltf_window_offset + n],
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
        )
        times = np.zeros(1)
        los = synthesize_csi_series(geom_los, CFG, times)
        # the reflected term: the bistatic scene less its direct path
        reflected = synthesize_csi_series(geom_target, CFG, times) - los
        p_los = avg_power(los)
        p_ref = avg_power(reflected)
        expected = power_ratio(2.0, np.sqrt(5.0), np.sqrt(5.0), 1.0)
        assert db(p_ref / p_los) == pytest.approx(expected, abs=0.5)

    def test_noise_scaling(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        times = np.linspace(0.0, 1.0, 200)
        clean = synthesize_csi_series(geom, CFG, times)
        noisy = synthesize_csi_series(geom, CFG, times, snr_db=20.0, rng=3)
        noise_power = avg_power(noisy - clean)
        assert db(avg_power(clean) / noise_power) == pytest.approx(20.0, abs=0.5)

    def test_empty_times_rejected(self):
        geom = one_path_geometry(position=(5.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            synthesize_csi_series(geom, CFG, [])

    def test_fixed_paths_match_per_packet_phases(self):
        # the LOS path and a fixed scatterer keep one delay at every packet
        # and take one phase row; the walker's changes. The series must be
        # the sum with every path's phase evaluated at every packet
        geom = ScenarioGeometry(
            tx_pos=(0.0, 0.0, 0.0), rx_pos=(3.0, 1.0, 0.0), n_antennas=3,
            targets=(PropagationPath(position=(2.0, 4.0, 0.0)),
                     PropagationPath(trajectory=linear_trajectory(
                         (5.0, -2.0, 0.0), (0.7, 0.4, 0.0)))))
        times = np.linspace(0.0, 0.5, 7)
        alpha, tau, aoa = resolve_paths(geom, CFG, times,
                                        from_db(geom.tx_power_dbm))
        assert [bool(np.all(d == d[0])) for d in tau] == [True, True, False]
        freqs = CFG.carrier_freq + CFG.subcarrier_freqs()
        expected = np.zeros((times.size, 3, CFG.n_used), dtype=np.complex128)
        for a, d, ang in zip(alpha, tau, aoa):
            core = np.exp(-2j * np.pi * d[:, None] * freqs[None, :])
            expected += (a[:, None, None] * steering_vector(ang, 3)[:, :, None]
                         * core[:, None, :])
        np.testing.assert_array_equal(
            synthesize_csi_series(geom, CFG, times), expected)


class TestPropagate:
    """Propagation through a ScenarioGeometry, as synthesize_csi_series
    computes it for each packet, antenna and subcarrier."""

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
        # a target 5 m out at 30 degrees from boresight
        at_30 = (5.0 * np.cos(np.radians(30.0)), 5.0 * np.sin(np.radians(30.0)),
                 0.0)
        geom = ScenarioGeometry(
            targets=(PropagationPath(position=at_30),), n_antennas=3,
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
        geom = one_path_geometry(position=(7.5, 0.0, 0.0))
        times = np.linspace(0.0, 1.0, 100)
        clean = synthesize_csi_series(geom, CFG, times)
        a = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=11)
        b = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=11)
        c = synthesize_csi_series(geom, CFG, times, snr_db=30.0, rng=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # noise power is set relative to the path's own power
        assert db(avg_power(a - clean) / avg_power(clean)) == pytest.approx(
            -30.0, abs=0.3)
