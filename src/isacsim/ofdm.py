"""OFDM PHY: radio parameters, packet airtime, training bursts, CSI extraction.

The PHY mirrors a 20 MHz / 64-subcarrier Wi-Fi-style link: a short training
field with 16-sample periodicity, a long training field of two identical
known symbols for per-subcarrier channel estimation, and cyclic-prefixed
repeats of the long symbol. It is deliberately not a bit-exact standard
implementation; CSI semantics only require the known long symbols. The
used subcarriers follow from the FFT size: 26 per side of DC at 64 bins,
scaled with the FFT size. The known content is built and measured in one
place, and ``burst_symbol_spans`` is the one record of where each symbol's
phase region, FFT window and cyclic prefix sit.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .sigcore import avg_power

SPEED_OF_LIGHT = 299792458.0

# fixed seed for the deterministic training-sequence values
_TRAINING_SEED = 0x2400


@dataclass(frozen=True)
class RadioConfig:
    carrier_freq: float = 2.4e9
    sample_rate: float = 20e6
    fft_size: int = 64
    cyclic_prefix_len: int = 16
    used_subcarriers: tuple = field(init=False)

    def __post_init__(self):
        n = self.fft_size
        n_side = min(int(round(26 * n / 64)), n // 2 - 1)
        # short training rides on every 4th subcarrier: one must be in use
        if n_side < 4:
            raise ValueError(
                f"fft_size {n} leaves no short-training subcarrier (need >= 10)")
        if not (0 < self.cyclic_prefix_len < self.fft_size):
            raise ValueError("cyclic prefix must be positive and shorter than a symbol")
        if not (0 < self.carrier_freq < np.inf
                and 0 < self.sample_rate < np.inf):
            raise ValueError(
                "carrier_freq and sample_rate must be positive and finite")
        bins = tuple(range(1, n_side + 1)) + tuple(range(n - n_side, n))
        object.__setattr__(self, "used_subcarriers", bins)

    @property
    def subcarrier_spacing(self):
        return self.sample_rate / self.fft_size

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def n_used(self):
        return len(self.used_subcarriers)

    @property
    def used_bins(self):
        return np.asarray(self.used_subcarriers, dtype=np.int64)

    def signed_index(self):
        """Used FFT bin index -> signed subcarrier index (negative above N/2)."""
        n = self.fft_size
        return ((self.used_bins + n // 2) % n) - n // 2

    def subcarrier_freqs(self):
        """Baseband frequency offset of each used subcarrier in Hz."""
        return self.signed_index() * self.subcarrier_spacing

    # --- preamble geometry (all lengths in samples) ---

    @property
    def stf_len(self):
        return (5 * self.fft_size) // 2

    @property
    def ltf_cp_len(self):
        # rounded up, so the preamble is 5 * fft_size samples at odd sizes too
        return (self.fft_size + 1) // 2

    @property
    def preamble_len(self):
        return 5 * self.fft_size

    @property
    def ltf_window_offset(self):
        """Offset of the first long-training FFT window from packet start."""
        return 3 * self.fft_size


def packet_duration(n_symbols, cfg):
    n = cfg.preamble_len + n_symbols * (cfg.fft_size + cfg.cyclic_prefix_len)
    return n / cfg.sample_rate


# ---------------------------------------------------------------------------
# Training burst and CSI extraction
# ---------------------------------------------------------------------------


def _symbol_from_bins(cfg, bins, vals):
    spec = np.zeros(cfg.fft_size, dtype=np.complex128)
    spec[np.asarray(bins, dtype=int)] = vals
    return np.fft.ifft(spec) * cfg.fft_size / np.sqrt(len(bins))


@functools.lru_cache(maxsize=8)
def _training(cfg):
    """Known training content, built and measured once per config and
    shared read only: the unit-power preamble, the long symbol at the
    preamble's scale, and the per-bin CSI reference (a clean long symbol's
    FFT at the used bins); a few configs are kept."""
    rng = np.random.default_rng(_TRAINING_SEED)
    # short training occupies every 4th subcarrier -> 16-sample periodicity
    stf_bins = cfg.used_bins[cfg.signed_index() % 4 == 0]
    stf_vals = (rng.integers(0, 2, len(stf_bins)) * 2 - 1) + 1j * (
        rng.integers(0, 2, len(stf_bins)) * 2 - 1
    )
    stf_vals = stf_vals.astype(np.complex128) / np.sqrt(2.0)
    ltf_vals = (rng.integers(0, 2, cfg.n_used) * 2 - 1).astype(np.complex128)
    stf_sym = _symbol_from_bins(cfg, stf_bins, stf_vals)
    ltf_sym = _symbol_from_bins(cfg, cfg.used_bins, ltf_vals)
    raw = np.concatenate([np.tile(stf_sym, 3)[: cfg.stf_len],
                          ltf_sym[-cfg.ltf_cp_len :], ltf_sym, ltf_sym])
    power = avg_power(raw)
    scale = 1.0 / np.sqrt(power)
    reference = ltf_vals * scale * (cfg.fft_size / np.sqrt(cfg.n_used))
    content = (raw / np.sqrt(power), ltf_sym * scale, reference)
    for arr in content:
        arr.flags.writeable = False
    return content


def extract_csi_symbols(samples, index, cfg, n_symbols=2):
    """Per-symbol CSI over a training burst (LTF pair + cyclic-prefixed repeats).

    Returns an (n_symbols, n_used) array; row l is the CSI measured from the
    l-th known training symbol, so per-symbol phase evolution is observable.
    """
    samples = np.asarray(samples)
    n = cfg.fft_size
    reference = _training(cfg)[2]
    out = np.empty((n_symbols, cfg.n_used), dtype=np.complex128)
    for l, (_, _, window, _) in enumerate(burst_symbol_spans(cfg, n_symbols)):
        w0 = index + window
        if w0 < 0 or w0 + n > len(samples):
            raise ValueError("training window out of bounds")
        out[l] = np.fft.fft(samples[w0 : w0 + n])[cfg.used_bins] / reference
    return out


def training_burst(cfg, n_extra=0):
    """Unit-power preamble (short section + two long symbols) followed by
    n_extra cyclic-prefixed repeats of the long symbol at the same scale."""
    pre, ltf_scaled, _ = _training(cfg)
    repeat = [ltf_scaled[-cfg.cyclic_prefix_len :], ltf_scaled]
    return np.concatenate([pre] + repeat * n_extra)


def burst_symbol_spans(cfg, n_symbols):
    """(region_start, region_end, window_start, prefix_start) per training symbol.

    The region covers the samples sharing symbol l's carrier-phase step
    (cyclic prefix included; the short training field is folded into l=0).
    Samples [prefix_start, window_start) repeat the window's tail; the
    second long symbol has no prefix, so its two starts coincide.
    """
    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    w0 = cfg.ltf_window_offset
    spans = [(0, w0 + n, w0, cfg.stf_len), (w0 + n, w0 + 2 * n, w0 + n, w0 + n)]
    for l in range(2, n_symbols):
        start = cfg.preamble_len + (l - 2) * (n + cp)
        spans.append((start, start + cp + n, start + cp, start))
    return spans[:n_symbols]


__all__ = [
    "SPEED_OF_LIGHT",
    "RadioConfig",
    "packet_duration",
    "extract_csi_symbols",
    "training_burst",
    "burst_symbol_spans",
]
