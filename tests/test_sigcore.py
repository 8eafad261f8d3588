import numpy as np
import pytest

from isacsim import kernels, sigcore
from isacsim.sigcore import (
    SampleBuffer,
    Spectrogram,
    complex_noise,
    nonuniform_dft,
    stft,
)


def naive_dft_sum(times, values, freqs):
    """Independent direct-sum oracle (plain python loop)."""
    out = []
    for f in freqs:
        acc = 0.0 + 0.0j
        for t, v in zip(times, values):
            acc += v * np.exp(-2j * np.pi * f * t)
        out.append(acc)
    return np.array(out)


class TestNonuniformDft:
    def test_uniform_grid_equals_fft(self):
        rng = np.random.default_rng(11)
        n = 64
        fs = 1000.0
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        times = np.arange(n) / fs
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        c = nonuniform_dft(times, x, freqs)
        ref = np.fft.fft(x)
        assert np.max(np.abs(c - ref)) / np.max(np.abs(ref)) < 1e-9

    def test_jittered_tone_peak(self):
        rng = np.random.default_rng(12)
        times = np.sort(rng.uniform(0.0, 1.0, 64))
        values = np.exp(2j * np.pi * 10.0 * times)
        freqs = np.arange(0.0, 20.5, 0.5)
        c = nonuniform_dft(times, values, freqs)
        assert freqs[np.argmax(np.abs(c))] == 10.0

    def test_zero_values(self):
        times = np.linspace(0, 1, 16)
        c = nonuniform_dft(times, np.zeros(16), np.arange(5.0))
        np.testing.assert_array_equal(c, np.zeros(5, dtype=complex))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rng.integers(3, 40)
            times = np.sort(rng.uniform(0, 2.0, m))
            values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            freqs = rng.uniform(-30, 30, 17)
            got = nonuniform_dft(times, values, freqs)
            want = naive_dft_sum(times, values, freqs)
            scale = np.max(np.abs(want)) + 1e-30
            assert np.max(np.abs(got - want)) / scale < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            nonuniform_dft([], [], [1.0])
        with pytest.raises(ValueError):
            nonuniform_dft([0.0, 0.0], [1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            nonuniform_dft([0.0, 1.0], [1.0], [1.0])


class TestStft:
    def test_tone_ridge(self):
        fs = 100.0
        t = np.arange(1024) / fs
        buf = SampleBuffer(np.exp(2j * np.pi * 16.0 * t), fs)
        spec = stft(buf, 128, 32)
        for row in spec.bins:
            peak = spec.freq_axis[np.argmax(row)]
            assert abs(peak - 16.0) <= fs / 128
        assert isinstance(spec, Spectrogram)

    def test_chirp_rising_ridge(self):
        fs = 100.0
        t = np.arange(2048) / fs
        f0, f1 = 5.0, 20.0
        k = (f1 - f0) / t[-1]
        phase = 2 * np.pi * (f0 * t + 0.5 * k * t**2)
        buf = SampleBuffer(np.exp(1j * phase), fs)
        spec = stft(buf, 128, 64)
        peaks = spec.freq_axis[np.argmax(spec.bins, axis=1)]
        inst = f0 + k * spec.time_axis  # instantaneous frequency at window centers
        assert np.all(np.diff(peaks) >= 0)
        assert np.max(np.abs(peaks - inst)) <= 2 * fs / 128

    def test_silence(self):
        buf = SampleBuffer(np.zeros(256, dtype=complex), 100.0)
        spec = stft(buf, 64, 16)
        assert np.all(spec.bins == 0)

    def test_nonuniform_path_tone(self):
        rng = np.random.default_rng(21)
        times = np.cumsum(rng.uniform(0.005, 0.015, 400))
        values = np.exp(-2j * np.pi * 12.0 * times)
        freqs = np.arange(-25.0, 25.0, 0.5)
        spec = stft((times, values), 64, 16, freqs=freqs)
        for row in spec.bins:
            assert abs(abs(spec.freq_axis[np.argmax(row)]) - 12.0) <= 1.0

    def test_errors(self):
        buf = SampleBuffer(np.zeros(16, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            stft(buf, 32, 4)
        with pytest.raises(ValueError):
            stft(buf, 1, 4)
        with pytest.raises(ValueError):
            stft(buf, 8, 0)


class TestNoise:
    def test_seeded_reproducible(self):
        a = complex_noise(256, -85.0, np.random.default_rng(99))
        b = complex_noise(256, -85.0, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_power_level(self):
        x = complex_noise(200_000, -10.0, np.random.default_rng(5))
        assert abs(sigcore.power_to_dbm(sigcore.avg_power(x)) - (-10.0)) < 0.1


class TestBufferInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.array([1.0, np.nan]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.ones(4), 0.0)

    def test_spectrogram_shape_check(self):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros((3, 4)), np.zeros(4), np.zeros(2))
        with pytest.raises(ValueError):
            Spectrogram(-np.ones((2, 2)), np.zeros(2), np.zeros(2))


class TestKernelPaths:
    def test_nlms_paths_agree(self):
        rng = np.random.default_rng(42)
        ref = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        true_taps = np.array([0.5 - 0.2j, 0.1j, -0.05])
        desired = np.convolve(ref, true_taps)[:300]
        taps = kernels.nlms_fir(ref, desired, 3, mu=0.5, n_passes=20)
        np.testing.assert_allclose(taps, true_taps, rtol=1e-5, atol=1e-7)

    def test_fir_apply_matches_convolve(self):
        rng = np.random.default_rng(43)
        ref = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = kernels.fir_apply(ref, taps)
        want = np.convolve(ref, taps)[:64]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
