"""Complex baseband primitives: buffers, transforms, STFT, phase tools, noise.

Power convention used across the package: baseband samples are unitless
voltages whose mean squared magnitude is a power referenced to 1 mW, i.e. a
buffer with average power 1.0 sits at 0 dBm.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import ndft_direct

TWO_PI = 2.0 * np.pi


def db(ratio):
    """Power ratio -> decibels; zero power is -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(ratio)


def from_db(d):
    """Decibels -> power ratio."""
    return 10.0 ** (np.asarray(d) / 10.0)


def dbm_to_power(dbm):
    """dBm -> linear power in the package's mW-referenced unit."""
    return 10.0 ** (dbm / 10.0)


def power_to_dbm(p):
    return 10.0 * np.log10(p)


def avg_power(samples):
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0.0
    return float(np.mean(np.abs(samples) ** 2))


@dataclass
class SampleBuffer:
    """Uniformly sampled complex baseband sequence."""

    samples: np.ndarray
    sample_rate: float
    start_time: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive and finite")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate

    def times(self):
        return self.start_time + np.arange(len(self.samples)) / self.sample_rate

    def power(self):
        return avg_power(self.samples)


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

    def band_energy_fraction(self, f_lo, f_hi, absolute=True):
        """Fraction of total energy whose |frequency| (or frequency) lies in [f_lo, f_hi]."""
        f = np.abs(self.freq_axis) if absolute else self.freq_axis
        total = float(np.sum(self.bins))
        if total == 0.0:
            return 0.0
        mask = (f >= f_lo) & (f <= f_hi)
        return float(np.sum(self.bins[:, mask])) / total


def fft(buf, size=None):
    """size-point DFT of the first `size` samples of a buffer or array."""
    samples = buf.samples if isinstance(buf, SampleBuffer) else np.asarray(buf)
    if size is None:
        size = len(samples)
    size = int(size)
    if size < 1:
        raise ValueError("size must be >= 1")
    if len(samples) < size:
        raise ValueError("buffer shorter than requested transform size")
    return np.fft.fft(np.asarray(samples[:size], dtype=np.complex128))


def ifft(spectrum):
    """Inverse DFT, same length as the spectrum."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.size < 1:
        raise ValueError("spectrum must be non-empty")
    return np.fft.ifft(spectrum)


def nonuniform_dft(times, values, freqs):
    """Direct nonuniform DFT: c(f) = sum_m values[m] * exp(-2j*pi*f*times[m]).

    times must be strictly increasing and match values in length.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    freqs = np.asarray(freqs, dtype=np.float64)
    if times.size == 0 or values.size == 0:
        raise ValueError("empty input")
    if times.shape != values.shape:
        raise ValueError("times and values must have equal length")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return ndft_direct(times, values, freqs)


def hann_window(n, periodic=True):
    denom = n if periodic else n - 1
    return 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / denom)


def rect_window(n):
    return np.ones(n)


_WINDOWS = {"hann": hann_window, "rect": rect_window}


def _window_weights(name, n):
    try:
        factory = _WINDOWS[name]
    except KeyError:
        raise ValueError(f"unknown window {name!r}") from None
    return factory(n)


def stft(signal, window_len, hop, window="hann", freqs=None):
    """Short-time power spectrogram.

    `signal` is either a SampleBuffer (uniform path, FFT per window) or a
    (times, values) pair (nonuniform path, direct nonuniform DFT per window
    evaluated at `freqs`, defaulting to the FFT bins of the mean sample rate).
    """
    window_len = int(window_len)
    hop = int(hop)
    if window_len < 2:
        raise ValueError("window_len must be >= 2")
    if hop < 1:
        raise ValueError("hop must be >= 1")

    if isinstance(signal, SampleBuffer):
        samples = signal.samples
        if len(samples) < window_len:
            raise ValueError("fewer samples than one window")
        w = _window_weights(window, window_len)
        starts = range(0, len(samples) - window_len + 1, hop)
        freq_axis = np.fft.fftshift(np.fft.fftfreq(window_len, d=1.0 / signal.sample_rate))
        rows = []
        centers = []
        for s in starts:
            seg = samples[s : s + window_len] * w
            spec = np.fft.fftshift(np.fft.fft(seg))
            rows.append(np.abs(spec) ** 2)
            centers.append(signal.start_time + (s + (window_len - 1) / 2.0) / signal.sample_rate)
        return Spectrogram(np.array(rows), freq_axis, np.array(centers))

    times, values = signal
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
    w = _window_weights(window, window_len)
    rows = []
    centers = []
    for s in range(0, times.size - window_len + 1, hop):
        t_seg = times[s : s + window_len]
        v_seg = values[s : s + window_len] * w
        spec = nonuniform_dft(t_seg, v_seg, freqs)
        rows.append(np.abs(spec) ** 2)
        centers.append(0.5 * (t_seg[0] + t_seg[-1]))
    return Spectrogram(np.array(rows), freqs, np.array(centers))


def unwrap_phase(phases):
    """Unwrap so successive differences fall in (-pi, pi].

    The output differs from the input by exact integer multiples of 2*pi
    (one multiply per element, no cumulative rounding).
    """
    p = np.asarray(phases, dtype=np.float64)
    if p.size == 0:
        return p.copy()
    d = np.diff(p)
    # m chosen so that d - 2*pi*m lies in (-pi, pi]
    m = np.ceil((d - np.pi) / TWO_PI)
    k = np.concatenate(([0.0], np.cumsum(m)))
    return p - TWO_PI * k


def complex_noise(n, power_dbm, rng):
    """Circular complex Gaussian noise with the given total power in dBm."""
    p = dbm_to_power(power_dbm)
    scale = np.sqrt(p / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


__all__ = [
    "SampleBuffer",
    "Spectrogram",
    "fft",
    "ifft",
    "nonuniform_dft",
    "stft",
    "unwrap_phase",
    "hann_window",
    "rect_window",
    "complex_noise",
    "db",
    "from_db",
    "dbm_to_power",
    "power_to_dbm",
    "avg_power",
]
