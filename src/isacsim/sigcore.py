"""Complex baseband primitives: nonuniform DFT, STFT, noise, dB, angle wrap.

A waveform is a plain complex ndarray sampled at ``cfg.sample_rate`` and
starting at sample 0. Power convention used across the package: baseband
samples are unitless voltages whose mean squared magnitude is a power
referenced to 1 mW, i.e. an array with average power 1.0 sits at 0 dBm.
dBm is therefore dB relative to 1, and ``db``/``from_db`` are the one
conversion each way for ratios and absolute powers alike.
"""

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def db(ratio):
    """Power ratio (or power in mW) -> dB (or dBm); zero power is -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(ratio)


def from_db(d):
    """dB (or dBm) -> power ratio (or power in mW)."""
    return 10.0 ** (np.asarray(d) / 10.0)


def wrap_deg(angle):
    """Wrap degrees into [-180, 180)."""
    return (np.asarray(angle) + 180.0) % 360.0 - 180.0


def avg_power(samples):
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0.0
    return float(np.mean(np.abs(samples) ** 2))


@dataclass
class Spectrogram:
    """Power spectrogram: bins[window, freq] with matching axes."""

    bins: np.ndarray
    freq_axis: np.ndarray
    time_axis: np.ndarray

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.float64)
        self.freq_axis = np.asarray(self.freq_axis, dtype=np.float64)
        self.time_axis = np.asarray(self.time_axis, dtype=np.float64)
        if self.bins.ndim != 2:
            raise ValueError("bins must be a 2-D matrix")
        if self.bins.shape != (len(self.time_axis), len(self.freq_axis)):
            raise ValueError("axis lengths must match bins shape")
        if self.bins.size and np.min(self.bins) < 0:
            raise ValueError("power bins must be non-negative")

    def band_energy_fraction(self, f_lo, f_hi):
        """Fraction of total energy whose |frequency| lies in [f_lo, f_hi]."""
        f = np.abs(self.freq_axis)
        total = float(np.sum(self.bins))
        if total == 0.0:
            return 0.0
        mask = (f >= f_lo) & (f <= f_hi)
        return float(np.sum(self.bins[:, mask])) / total


def nonuniform_dft(times, values, freqs):
    """Direct nonuniform DFT: c(f) = sum_m values[m] * exp(-2j*pi*f*times[m]).

    times must be finite, strictly increasing and match values in length.
    The outer product is built in frequency chunks so the temporary stays
    bounded.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    freqs = np.asarray(freqs, dtype=np.float64)
    if times.size == 0 or values.size == 0:
        raise ValueError("empty input")
    if times.shape != values.shape:
        raise ValueError("times and values must have equal length")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    out = np.empty(len(freqs), dtype=np.complex128)
    chunk = max(1, 4_000_000 // len(times))
    for i in range(0, len(freqs), chunk):
        block = freqs[i : i + chunk, None] * times[None, :]
        out[i : i + chunk] = np.exp(-2j * np.pi * block) @ values
    return out


def hann_window(n):
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / n)


def stft(times, values, window_len, hop, freqs=None):
    """Short-time power spectrogram with a periodic Hann window.

    Each window of ``window_len`` samples, ``hop`` apart, is weighted by the
    Hann window and transformed by ``nonuniform_dft`` at ``freqs`` (default:
    the FFT bins of the mean sample spacing), so on uniform times a row is
    the windowed FFT's power. A window's time is the midpoint of its first
    and last sample time.
    """
    window_len = int(window_len)
    hop = int(hop)
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    if times.size != values.size:
        raise ValueError("times and values must have equal length")
    if times.size < window_len:
        raise ValueError("fewer samples than one window")
    if freqs is None:
        mean_dt = (times[-1] - times[0]) / (times.size - 1)
        freqs = np.fft.fftshift(np.fft.fftfreq(window_len, d=mean_dt))
    freqs = np.asarray(freqs, dtype=np.float64)
    w = hann_window(window_len)
    rows = []
    centers = []
    for s in range(0, times.size - window_len + 1, hop):
        t_seg = times[s : s + window_len]
        spec = nonuniform_dft(t_seg, values[s : s + window_len] * w, freqs)
        rows.append(np.abs(spec) ** 2)
        centers.append(0.5 * (t_seg[0] + t_seg[-1]))
    return Spectrogram(np.array(rows), freqs, np.array(centers))


def complex_noise(n, power_dbm, rng):
    """Circular complex Gaussian noise with the given total power in dBm."""
    out = np.empty(n, dtype=np.complex128)
    out.real = rng.standard_normal(n)
    out.imag = rng.standard_normal(n)
    out *= np.sqrt(from_db(power_dbm) / 2.0)
    return out


__all__ = [
    "Spectrogram",
    "nonuniform_dft",
    "stft",
    "hann_window",
    "complex_noise",
    "db",
    "from_db",
    "avg_power",
    "wrap_deg",
]
