import numpy as np
import pytest

from isacsim import ofdm
from isacsim.ofdm import (
    RadioConfig,
    burst_symbol_spans,
    extract_csi_symbols,
    packet_duration,
    training_burst,
)
from isacsim.sigcore import avg_power

CFG = RadioConfig()


class TestRadioConfig:
    def test_defaults(self):
        assert CFG.subcarrier_spacing == 312.5e3
        assert CFG.n_used == 52
        assert 0 not in CFG.used_subcarriers
        assert CFG.cyclic_prefix_len == 16
        assert abs(CFG.wavelength - 0.1249135) < 1e-4

    def test_signed_index(self):
        signed = CFG.signed_index()
        assert signed.min() == -26 and signed.max() == 26
        assert 0 not in signed

    def test_invalid(self):
        with pytest.raises(ValueError):
            RadioConfig(cyclic_prefix_len=64)
        for field in ("carrier_freq", "sample_rate"):
            for value in (float("nan"), float("inf"), float("-inf"), 0.0):
                with pytest.raises(ValueError, match="finite"):
                    RadioConfig(**{field: value})

    def test_used_subcarriers_follow_fft_size(self):
        assert CFG.used_subcarriers == tuple(range(1, 27)) + tuple(range(38, 64))
        small = RadioConfig(fft_size=32, cyclic_prefix_len=8)
        assert small.used_subcarriers == tuple(range(1, 14)) + tuple(range(19, 32))
        with pytest.raises(TypeError):
            RadioConfig(used_subcarriers=(1, 2))

    def test_fft_size_override_recomputes_spacing(self):
        small = RadioConfig(fft_size=32, cyclic_prefix_len=8)
        assert small.subcarrier_spacing == 20e6 / 32

    @pytest.mark.parametrize("fft_size", [-4, 0, 3, 4, 8, 9])
    def test_no_short_training_subcarrier_rejected(self, fft_size):
        with pytest.raises(ValueError, match="short-training subcarrier"):
            RadioConfig(fft_size=fft_size, cyclic_prefix_len=2)

    def test_fft_size_above_the_largest_802_11_fft_rejected(self):
        assert RadioConfig(fft_size=ofdm.MAX_FFT_SIZE).n_used == 2 * 1664
        # the bound comes before any arithmetic: a size too large for a
        # float is a ValueError, not an OverflowError
        for fft_size in (ofdm.MAX_FFT_SIZE + 1, 10**7, 10**400):
            with pytest.raises(ValueError, match="largest 802.11 FFT"):
                RadioConfig(fft_size=fft_size)

    def test_smallest_fft_size_builds_finite_burst(self):
        cfg = RadioConfig(fft_size=10, cyclic_prefix_len=2)
        burst = training_burst(cfg, n_extra=2)
        assert np.all(np.isfinite(burst))
        np.testing.assert_allclose(
            extract_csi_symbols(burst, 0, cfg, n_symbols=4), 1.0, atol=1e-9)


class TestPreamble:
    def test_fixed_length_and_unit_power(self):
        pre = training_burst(CFG)
        assert len(pre) == 5 * CFG.fft_size == 320
        assert abs(avg_power(pre) - 1.0) < 1e-9

    @pytest.mark.parametrize("fft_size", [33, 64])
    @pytest.mark.parametrize("n_extra", [0, 1, 3])
    def test_burst_length_at_odd_and_even_sizes(self, fft_size, n_extra):
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=fft_size // 4)
        burst = training_burst(cfg, n_extra=n_extra)
        assert cfg.preamble_len == 5 * fft_size
        assert len(burst) == cfg.preamble_len + n_extra * (
            fft_size + cfg.cyclic_prefix_len)

    def test_deterministic(self):
        a = training_burst(CFG)
        b = training_burst(CFG)
        np.testing.assert_array_equal(a, b)

    def test_long_symbol_autocorrelation(self):
        pre = training_burst(CFG)
        n = CFG.fft_size
        first = pre[3 * n : 4 * n]
        second = pre[4 * n : 5 * n]
        corr = abs(np.dot(first, np.conj(second)))
        energy = np.sqrt(np.sum(np.abs(first) ** 2) * np.sum(np.abs(second) ** 2))
        assert corr >= 0.99 * energy

    def test_short_section_periodicity(self):
        pre = training_burst(CFG)
        stf = pre[: CFG.stf_len]
        np.testing.assert_allclose(stf[16:], stf[:-16], atol=1e-12)

    @pytest.mark.parametrize("fft_size", [33, 64])
    def test_training_content_shared_read_only(self, fft_size):
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=fft_size // 4)
        content = ofdm._training(cfg)
        assert ofdm._training(
            RadioConfig(fft_size=fft_size, cyclic_prefix_len=fft_size // 4)
        ) is content
        for got, fresh in zip(content, ofdm._training.__wrapped__(cfg)):
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, fresh)
        # callers get arrays of their own
        assert training_burst(cfg).flags.writeable


class TestSymbolLayout:
    @pytest.mark.parametrize("fft_size", [16, 32, 64, 128])
    @pytest.mark.parametrize("n_extra", [0, 1, 2, 3])
    def test_prefixes_repeat_window_tails(self, fft_size, n_extra):
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=fft_size // 4)
        burst = training_burst(cfg, n_extra=n_extra)
        spans = burst_symbol_spans(cfg, 2 + n_extra)
        assert spans[-1][0] + fft_size == len(burst)
        for l, (win, pre) in enumerate(spans):
            # each prefix follows the previous window
            if l > 0:
                assert pre == spans[l - 1][0] + fft_size
            assert pre <= win
            # the prefix repeats the window's last win - pre samples
            end = win + fft_size
            np.testing.assert_array_equal(burst[pre:win],
                                          burst[pre + fft_size : end])
        assert spans[0][0] - spans[0][1] == fft_size // 2
        assert spans[1][0] == spans[1][1]


class TestPackets:
    def test_duration_consistency(self):
        # 320-sample preamble + 8 symbols of 64 + 16 samples at 20 MHz
        assert packet_duration(0, CFG) == pytest.approx(16e-6, rel=1e-12)
        assert packet_duration(8, CFG) == pytest.approx(48e-6, rel=1e-12)
        narrow = RadioConfig(fft_size=32, cyclic_prefix_len=8)
        assert packet_duration(2, narrow) == pytest.approx(
            (160 + 2 * 40) / 20e6, rel=1e-12
        )


class TestCsiExtraction:
    def test_identity_channel(self):
        csi = extract_csi_symbols(training_burst(CFG), 0, CFG)
        assert csi.shape == (2, 52)
        np.testing.assert_allclose(csi, np.ones((2, 52)), atol=1e-9)

    def test_pdd_phase_ramp(self):
        # window early by 2 samples <=> phase -2*pi*k*2/64; at k=16 that is -pi
        pkt = training_burst(CFG)
        samples = np.concatenate([np.zeros(8, dtype=complex), pkt])
        csi = extract_csi_symbols(samples, 8 - 2, CFG)
        k16 = list(CFG.used_subcarriers).index(16)
        phase = np.angle(csi[:, k16])
        assert np.all(np.minimum(abs(phase - np.pi), abs(phase + np.pi)) < 1e-6)

    def test_pdd_slope_across_bins(self):
        pkt = training_burst(CFG)
        samples = np.concatenate([np.zeros(8, dtype=complex), pkt])
        csi = extract_csi_symbols(samples, 8 - 1, CFG)
        bins = CFG.used_bins.astype(float)
        for row in csi:
            slope = np.polyfit(bins, np.unwrap(np.angle(row)), 1)[0]
            assert abs(slope - (-2 * np.pi / 64)) < 1e-6

    def test_per_symbol_cfo_increment(self):
        # gamma_c such that gamma_c/(df*N) = 1/4 -> phase steps of -pi/2 per symbol
        n_sym = 6
        samples = training_burst(CFG, n_extra=n_sym - 2)
        for l, (win, pre) in enumerate(burst_symbol_spans(CFG, n_sym)):
            end = win + CFG.fft_size
            samples[pre:end] *= np.exp(-2j * np.pi * (l / 4.0))
        sym_csi = extract_csi_symbols(
            samples, 0, CFG, n_symbols=n_sym
        )
        mean_phase = np.angle(np.sum(sym_csi, axis=1))
        d = np.diff(np.unwrap(mean_phase))
        np.testing.assert_allclose(d, -np.pi / 2, atol=1e-9)

    def test_monostatic_fixed_cpo_no_drift(self):
        n_sym = 100
        burst = training_burst(CFG, n_extra=n_sym - 2)
        samples = burst * np.exp(-2j * np.pi * 0.3)  # fixed phase only
        sym_csi = extract_csi_symbols(
            samples, 0, CFG, n_symbols=n_sym
        )
        ph = np.angle(np.sum(sym_csi, axis=1))
        assert np.max(np.abs(ph - ph[0])) < 1e-6

    def test_out_of_bounds(self):
        pkt = training_burst(CFG)
        with pytest.raises(ValueError):
            extract_csi_symbols(pkt, 100, CFG)
        with pytest.raises(ValueError):
            extract_csi_symbols(pkt, 0, CFG, n_symbols=3)
