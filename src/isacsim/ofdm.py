"""OFDM PHY: radio parameters, packet airtime, training bursts, CSI extraction.

The PHY mirrors a 20 MHz / 64-subcarrier Wi-Fi-style link: a short training
field with 16-sample periodicity, a long training field of two identical
known symbols for per-subcarrier channel estimation, and cyclic-prefixed
repeats of the long symbol. It is deliberately not a bit-exact standard
implementation; CSI semantics only require the known long symbols. The
used subcarriers follow from the FFT size: 26 per side of DC at 64 bins,
scaled with the FFT size.
"""

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
        if self.fft_size < 4:
            raise ValueError("fft_size too small")
        if not (0 < self.cyclic_prefix_len < self.fft_size):
            raise ValueError("cyclic prefix must be positive and shorter than a symbol")
        if not (0 < self.carrier_freq < np.inf
                and 0 < self.sample_rate < np.inf):
            raise ValueError(
                "carrier_freq and sample_rate must be positive and finite")
        n = self.fft_size
        n_side = min(int(round(26 * n / 64)), n // 2 - 1)
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
        return self.fft_size // 2

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
# Training sequences
# ---------------------------------------------------------------------------


def _training_values(cfg):
    """Deterministic frequency-domain training values (stf_bins, stf_vals, ltf_vals)."""
    rng = np.random.default_rng(_TRAINING_SEED)
    signed = cfg.signed_index()
    # short training occupies every 4th subcarrier -> 16-sample periodicity
    stf_mask = (signed % 4 == 0)
    stf_bins = cfg.used_bins[stf_mask]
    stf_vals = (rng.integers(0, 2, len(stf_bins)) * 2 - 1) + 1j * (
        rng.integers(0, 2, len(stf_bins)) * 2 - 1
    )
    stf_vals = stf_vals.astype(np.complex128) / np.sqrt(2.0)
    ltf_vals = (rng.integers(0, 2, cfg.n_used) * 2 - 1).astype(np.complex128)
    return stf_bins, stf_vals, ltf_vals


def long_training_values(cfg):
    """Known frequency-domain values of the long training symbol (used bins)."""
    return _training_values(cfg)[2]


def _symbol_from_bins(cfg, bins, vals):
    spec = np.zeros(cfg.fft_size, dtype=np.complex128)
    spec[np.asarray(bins, dtype=int)] = vals
    return np.fft.ifft(spec) * cfg.fft_size / np.sqrt(len(bins))


def _raw_preamble(cfg):
    """Short training section + cyclic-prefixed long symbol pair, unscaled."""
    stf_bins, stf_vals, ltf_vals = _training_values(cfg)
    stf_sym = _symbol_from_bins(cfg, stf_bins, stf_vals)
    ltf_sym = _symbol_from_bins(cfg, cfg.used_bins, ltf_vals)
    stf = np.tile(stf_sym, 3)[: cfg.stf_len]
    ltf = np.concatenate([ltf_sym[-cfg.ltf_cp_len :], ltf_sym, ltf_sym])
    return np.concatenate([stf, ltf])


def generate_preamble(cfg):
    """Deterministic unit-power preamble: repeated short section + two long symbols."""
    samples = _raw_preamble(cfg)
    return samples / np.sqrt(avg_power(samples))


def _preamble_scale(cfg):
    """Scale applied to training symbols inside generate_preamble."""
    return 1.0 / np.sqrt(avg_power(_raw_preamble(cfg)))


# ---------------------------------------------------------------------------
# CSI extraction
# ---------------------------------------------------------------------------


def _csi_window(samples, offset, cfg):
    n = cfg.fft_size
    if offset < 0 or offset + n > len(samples):
        raise ValueError("training window out of bounds")
    return np.fft.fft(samples[offset : offset + n])


def extract_csi_symbols(samples, index, cfg, n_symbols=2):
    """Per-symbol CSI over a training burst (LTF pair + cyclic-prefixed repeats).

    Returns an (n_symbols, n_used) array; row l is the CSI measured from the
    l-th known training symbol, so per-symbol phase evolution is observable.
    """
    samples = np.asarray(samples)
    ltf_vals = long_training_values(cfg) * _preamble_scale(cfg) * (
        cfg.fft_size / np.sqrt(cfg.n_used)
    )
    out = np.empty((n_symbols, cfg.n_used), dtype=np.complex128)
    for l, (_, _, window) in enumerate(burst_symbol_spans(cfg, n_symbols)):
        spec = _csi_window(samples, index + window, cfg)
        out[l] = spec[cfg.used_bins] / ltf_vals
    return out


def training_burst(cfg, n_extra=0):
    """Preamble followed by n_extra cyclic-prefixed repeats of the long symbol."""
    pre = generate_preamble(cfg)
    ltf_scaled = (
        _symbol_from_bins(cfg, cfg.used_bins, long_training_values(cfg))
        * _preamble_scale(cfg)
    )
    cp = cfg.cyclic_prefix_len
    chunks = [pre]
    for _ in range(n_extra):
        chunks.append(ltf_scaled[-cp:])
        chunks.append(ltf_scaled)
    return np.concatenate(chunks)


def burst_symbol_spans(cfg, n_symbols):
    """(region_start, region_end, window_start) per training symbol.

    The region covers the samples sharing symbol l's carrier-phase step
    (cyclic prefix included; the short training field is folded into l=0).
    """
    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    spans = []
    for l in range(n_symbols):
        if l == 0:
            spans.append((0, cfg.ltf_window_offset + n, cfg.ltf_window_offset))
        elif l == 1:
            start = cfg.ltf_window_offset + n
            spans.append((start, start + n, start))
        else:
            start = cfg.preamble_len + (l - 2) * (n + cp)
            spans.append((start, start + cp + n, start + cp))
    return spans


__all__ = [
    "SPEED_OF_LIGHT",
    "RadioConfig",
    "packet_duration",
    "generate_preamble",
    "long_training_values",
    "extract_csi_symbols",
    "training_burst",
    "burst_symbol_spans",
]
