import numpy as np
import pytest

from isacsim import kernels, sigcore
from isacsim.sigcore import (
    Spectrogram,
    complex_noise,
    hann_window,
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


def nlms_fir_loop(ref, desired, n_taps, mu=0.1, eps=1e-12, n_passes=1,
                  taps_init=None):
    """Per-sample NLMS recursion: the reference for kernels.nlms_fir."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    desired = np.ascontiguousarray(desired, dtype=np.complex128)
    if taps_init is None:
        w = np.zeros(n_taps, dtype=np.complex128)
    else:
        w = np.ascontiguousarray(taps_init, dtype=np.complex128).copy()
    mu, eps = float(mu), float(eps)
    x = np.zeros(n_taps, dtype=np.complex128)
    for _ in range(int(n_passes)):
        x[:] = 0.0
        for i in range(len(desired)):
            x[1:] = x[:-1]
            x[0] = ref[i]
            err = desired[i] - np.dot(w, x)
            norm = eps + np.real(np.vdot(x, x))
            w = w + (mu * err / norm) * np.conj(x)
    return w


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            nonuniform_dft([0.0, bad, 1.0], np.ones(3), np.arange(3.0))

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
        spec = stft(t, np.exp(2j * np.pi * 16.0 * t), 128, 32)
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
        spec = stft(t, np.exp(1j * phase), 128, 64)
        peaks = spec.freq_axis[np.argmax(spec.bins, axis=1)]
        inst = f0 + k * spec.time_axis  # instantaneous frequency at window centers
        assert np.all(np.diff(peaks) >= 0)
        assert np.max(np.abs(peaks - inst)) <= 2 * fs / 128

    def test_silence(self):
        spec = stft(np.arange(256) / 100.0, np.zeros(256, dtype=complex), 64, 16)
        assert np.all(spec.bins == 0)

    def test_uniform_times_match_windowed_fft(self):
        # oracle: on uniform times every row is the windowed FFT's power
        fs, w, hop = 100.0, 64, 24
        rng = np.random.default_rng(17)
        t = 0.3 + np.arange(500) / fs
        x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        spec = stft(t, x, w, hop)
        np.testing.assert_allclose(
            spec.freq_axis, np.fft.fftshift(np.fft.fftfreq(w, d=1.0 / fs)),
            rtol=1e-12,
        )
        starts = range(0, len(x) - w + 1, hop)
        assert spec.bins.shape == (len(starts), w)
        for row, s in zip(spec.bins, starts):
            seg = x[s : s + w] * hann_window(w)
            ref = np.abs(np.fft.fftshift(np.fft.fft(seg))) ** 2
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12 * ref.max())
        centres = [t[0] + (s + (w - 1) / 2.0) / fs for s in starts]
        np.testing.assert_allclose(spec.time_axis, centres, rtol=1e-12)

    def test_nonuniform_path_tone(self):
        rng = np.random.default_rng(21)
        times = np.cumsum(rng.uniform(0.005, 0.015, 400))
        values = np.exp(-2j * np.pi * 12.0 * times)
        freqs = np.arange(-25.0, 25.0, 0.5)
        spec = stft(times, values, 64, 16, freqs=freqs)
        for row in spec.bins:
            assert abs(abs(spec.freq_axis[np.argmax(row)]) - 12.0) <= 1.0

    def test_errors(self):
        t, x = np.arange(16.0), np.zeros(16, dtype=complex)
        with pytest.raises(ValueError):
            stft(t, x, 32, 4)
        with pytest.raises(ValueError):
            stft(t, x, 1, 4)
        with pytest.raises(ValueError):
            stft(t, x, 8, 0)
        with pytest.raises(ValueError):
            stft(t[:-1], x, 8, 4)


class TestNoise:
    def test_seeded_reproducible(self):
        a = complex_noise(256, -85.0, np.random.default_rng(99))
        b = complex_noise(256, -85.0, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_power_level(self):
        x = complex_noise(200_000, -10.0, np.random.default_rng(5))
        assert abs(sigcore.db(sigcore.avg_power(x)) - (-10.0)) < 0.1

    def test_matches_scaled_sum_of_draws(self):
        # built in place, it keeps the bits of scale * (re + 1j * im)
        rng = np.random.default_rng(11)
        re, im = rng.standard_normal(1000), rng.standard_normal(1000)
        want = np.sqrt(sigcore.from_db(-37.0) / 2.0) * (re + 1j * im)
        got = complex_noise(1000, -37.0, np.random.default_rng(11))
        assert got.tobytes() == want.tobytes()


class TestBufferInvariants:
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

    # (n samples, n taps, keywords); "calibrate" and "calibrate-fft16" are
    # the bursts calibrate fits at the default config and at fft_size = 16
    NLMS_CASES = {
        "calibrate": (960, 16, {"mu": 0.1, "n_passes": 4}),
        "calibrate-fft16": (240, 16, {"mu": 0.1, "n_passes": 4}),
        "partial-block": (53, 16, {"mu": 0.1, "n_passes": 3}),
        "partial-batch": (167, 16, {"mu": 0.1}),
        "shorter-than-block": (13, 16, {"mu": 0.3, "n_passes": 2}),
        "taps-exceed-length": (5, 9, {"mu": 0.3, "n_passes": 2}),
        "no-passes": (40, 4, {"n_passes": 0, "taps_init": "random"}),
        "taps-init": (300, 16, {"mu": 0.1, "n_passes": 2,
                                "taps_init": "random"}),
        "unit-step": (300, 16, {"mu": 1.0, "n_passes": 2}),
        "zero-run": (400, 16, {"mu": 0.5, "n_passes": 2, "zero_run": True}),
        "single-tap": (100, 1, {"mu": 0.5, "n_passes": 2}),
    }

    @pytest.mark.parametrize("case", NLMS_CASES)
    def test_nlms_matches_per_sample_recursion(self, case):
        n, n_taps, kw = self.NLMS_CASES[case]
        kw = dict(kw)
        rng = np.random.default_rng(7)
        ref = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kw.pop("zero_run", False):
            # regressors that are all zero take the eps-only step
            ref[100:200] = 0.0
        desired = np.convolve(ref, [0.5 - 0.2j, 0.1j, -0.05])[:n]
        desired += 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if kw.get("taps_init") == "random":
            kw["taps_init"] = (rng.standard_normal(n_taps)
                               + 1j * rng.standard_normal(n_taps))
        got = kernels.nlms_fir(ref, desired, n_taps, **kw)
        want = nlms_fir_loop(ref, desired, n_taps, **kw)
        # rounding scales with the largest tap, not with each tap: the fit's
        # noise taps sit ~1e-4 below it
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_nlms_reuses_one_reference(self):
        # fits in sequence against one reference share its operators; each
        # must still be the per-sample recursion's own
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        kw = {"mu": 0.1, "n_passes": 3}
        kernels.nlms_fir(ref, np.zeros(500), 16, **kw)
        hits = kernels._sweep_of.cache_info().hits
        fits = [{}] * 4 + [{"taps_init": rng.standard_normal(16) + 0.5j}]
        for extra in fits:
            desired = np.convolve(ref, rng.standard_normal(4) + 1j)[:500]
            desired += 1e-3 * rng.standard_normal(500)
            got = kernels.nlms_fir(ref, desired, 16, **kw, **extra)
            want = nlms_fir_loop(ref, desired, 16, **kw, **extra)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
            assert got.flags.owndata and got.flags.writeable
        assert kernels._sweep_of.cache_info().hits == hits + len(fits)

    def test_nlms_memo_keyed_on_step_and_passes(self):
        # one reference fitted at two step sizes and two pass counts builds
        # one operator pair per setting, each the per-sample recursion's own
        rng = np.random.default_rng(9)
        ref = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        desired = np.convolve(ref, [0.5 - 0.2j, 0.1j, -0.05])[:400]
        desired += 1e-3 * rng.standard_normal(400)
        settings = [{"mu": mu, "n_passes": k} for mu in (0.1, 0.3)
                    for k in (1, 4)]
        misses = kernels._sweep_of.cache_info().misses
        for kw in settings:
            got = kernels.nlms_fir(ref, desired, 16, **kw)
            want = nlms_fir_loop(ref, desired, 16, **kw)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        assert kernels._sweep_of.cache_info().misses == misses + len(settings)

    def test_nlms_operators_read_only(self):
        ref = np.exp(0.3j * np.arange(100))
        kernels.nlms_fir(ref, ref, 8, mu=0.2, n_passes=2)
        power, m = kernels._sweep_of(ref.tobytes(), 8, 0.2, 2)
        assert power.shape == (8, 8) and m.shape == (8, 100)
        for arr in (power, m):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_nlms_empty_input_returns_initial_taps(self):
        init = np.array([1.0, 2.0 - 1.0j, 0.5j])
        got = kernels.nlms_fir([], [], 3, taps_init=init)
        np.testing.assert_array_equal(got, init)
        assert got is not init
        np.testing.assert_array_equal(kernels.nlms_fir([], [], 2), np.zeros(2))

    def test_nlms_rejects_bad_arguments(self):
        ref = np.ones(8)
        with pytest.raises(ValueError):
            kernels.nlms_fir(ref, ref[:7], 3)
        with pytest.raises(ValueError):
            kernels.nlms_fir(ref, ref, 0)
        with pytest.raises(ValueError):
            kernels.nlms_fir(ref, ref, 3, taps_init=np.zeros(4))

    def test_fir_apply_matches_convolve(self):
        rng = np.random.default_rng(43)
        ref = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = kernels.fir_apply(ref, taps)
        want = np.convolve(ref, taps)[:64]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
