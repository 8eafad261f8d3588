"""OFDM PHY: radio parameters, packets, preamble detection, CSI extraction.

The PHY mirrors a 20 MHz / 64-subcarrier Wi-Fi-style link: a short training
field with 16-sample periodicity for delayed-autocorrelation detection, a long
training field of two identical known symbols for per-subcarrier channel
estimation, and cyclic-prefixed data symbols. It is deliberately not a
bit-exact standard implementation; CSI semantics only require the two known
long symbols.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .sigcore import SampleBuffer, avg_power

SPEED_OF_LIGHT = 299792458.0
MAX_FRAME_S = 5.484e-3

# fixed seed for the deterministic training-sequence values
_TRAINING_SEED = 0x2400


def _default_used_bins(fft_size):
    half = fft_size // 2
    n_side = int(round(26 * fft_size / 64))
    n_side = min(n_side, half - 1)
    return tuple(range(1, n_side + 1)) + tuple(range(fft_size - n_side, fft_size))


@dataclass(frozen=True)
class RadioConfig:
    carrier_freq: float = 2.4e9
    sample_rate: float = 20e6
    fft_size: int = 64
    cyclic_prefix_len: int = 16
    used_subcarriers: tuple = None

    def __post_init__(self):
        if self.used_subcarriers is None:
            object.__setattr__(self, "used_subcarriers", _default_used_bins(self.fft_size))
        if self.fft_size < 4:
            raise ValueError("fft_size too small")
        if not (0 < self.cyclic_prefix_len < self.fft_size):
            raise ValueError("cyclic prefix must be positive and shorter than a symbol")
        if self.carrier_freq <= 0 or self.sample_rate <= 0:
            raise ValueError("carrier_freq and sample_rate must be positive")
        bins = tuple(int(b) for b in self.used_subcarriers)
        if 0 in bins:
            raise ValueError("DC bin cannot be used")
        if any(b < 0 or b >= self.fft_size for b in bins):
            raise ValueError("subcarrier index out of range")
        if len(set(bins)) != len(bins):
            raise ValueError("duplicate subcarrier index")
        object.__setattr__(self, "used_subcarriers", bins)

    @property
    def subcarrier_spacing(self):
        return self.sample_rate / self.fft_size

    @property
    def sample_period(self):
        return 1.0 / self.sample_rate

    @property
    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def n_used(self):
        return len(self.used_subcarriers)

    @property
    def used_bins(self):
        return np.asarray(self.used_subcarriers, dtype=np.int64)

    def signed_index(self, bins=None):
        """FFT bin index -> signed subcarrier index (negative above N/2)."""
        k = self.used_bins if bins is None else np.asarray(bins)
        n = self.fft_size
        return ((k + n // 2) % n) - n // 2

    def subcarrier_freqs(self, bins=None):
        """Baseband frequency offset of each used subcarrier in Hz."""
        return self.signed_index(bins) * self.subcarrier_spacing

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


class Modulation(enum.Enum):
    BPSK = 1
    QPSK = 2
    QAM16 = 4
    QAM64 = 6

    @property
    def bits_per_symbol(self):
        return self.value


_CODING_RATES = {"1/2": 0.5, "2/3": 2.0 / 3.0, "3/4": 0.75, "5/6": 5.0 / 6.0}


@dataclass(frozen=True)
class Mcs:
    modulation: Modulation
    coding_rate_name: str

    def __post_init__(self):
        if self.coding_rate_name not in _CODING_RATES:
            raise ValueError(f"unknown coding rate {self.coding_rate_name!r}")

    @property
    def coding_rate(self):
        return _CODING_RATES[self.coding_rate_name]

    @property
    def bits_per_symbol(self):
        return self.modulation.bits_per_symbol

    @property
    def name(self):
        return f"{self.modulation.name.lower()}-{self.coding_rate_name}"


MCS_TABLE = {
    f"{mod.name.lower()}-{rate}": Mcs(mod, rate)
    for mod in Modulation
    for rate in _CODING_RATES
}


def packet_duration(n_symbols, cfg):
    n = cfg.preamble_len + n_symbols * (cfg.fft_size + cfg.cyclic_prefix_len)
    return n / cfg.sample_rate


@dataclass
class PacketMeta:
    tx_time: float
    mcs: Mcs
    n_symbols: int
    duration: float = None
    cfg: RadioConfig = field(default_factory=RadioConfig, repr=False)

    def __post_init__(self):
        if self.n_symbols < 0:
            raise ValueError("n_symbols must be >= 0")
        expected = packet_duration(self.n_symbols, self.cfg)
        if self.duration is None:
            self.duration = expected
        elif abs(self.duration - expected) > 1e-9:
            raise ValueError("duration inconsistent with symbol count")
        if self.duration > MAX_FRAME_S:
            raise ValueError("frame exceeds maximum duration")


@dataclass
class CsiMatrix:
    """Per-packet channel estimate indexed [rx_ant][tx_ant][subcarrier]."""

    values: np.ndarray
    timestamp: float
    packet_id: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 3:
            raise ValueError("values must be [rx_ant][tx_ant][subcarrier]")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("CSI entries must be finite")

    @property
    def n_rx(self):
        return self.values.shape[0]

    @property
    def n_subcarriers(self):
        return self.values.shape[2]


# ---------------------------------------------------------------------------
# Training sequences
# ---------------------------------------------------------------------------


def _training_values(cfg):
    """Deterministic frequency-domain training values (stf_bins, stf_vals, ltf_vals)."""
    rng = np.random.default_rng(_TRAINING_SEED)
    n = cfg.fft_size
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


def generate_preamble(cfg):
    """Deterministic unit-power preamble: repeated short section + two long symbols."""
    n = cfg.fft_size
    stf_bins, stf_vals, ltf_vals = _training_values(cfg)
    stf_sym = _symbol_from_bins(cfg, stf_bins, stf_vals)
    ltf_sym = _symbol_from_bins(cfg, cfg.used_bins, ltf_vals)
    stf = np.tile(stf_sym, 3)[: cfg.stf_len]
    ltf = np.concatenate([ltf_sym[-cfg.ltf_cp_len :], ltf_sym, ltf_sym])
    samples = np.concatenate([stf, ltf])
    samples = samples / np.sqrt(avg_power(samples))
    return SampleBuffer(samples, cfg.sample_rate)


def _preamble_scale(cfg):
    """Scale applied to training symbols inside generate_preamble."""
    n = cfg.fft_size
    stf_bins, stf_vals, ltf_vals = _training_values(cfg)
    stf_sym = _symbol_from_bins(cfg, stf_bins, stf_vals)
    ltf_sym = _symbol_from_bins(cfg, cfg.used_bins, ltf_vals)
    stf = np.tile(stf_sym, 3)[: cfg.stf_len]
    ltf = np.concatenate([ltf_sym[-cfg.ltf_cp_len :], ltf_sym, ltf_sym])
    return 1.0 / np.sqrt(avg_power(np.concatenate([stf, ltf])))


# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------

_PAM2 = np.array([-1.0, 1.0])
_PAM4 = np.array([-3.0, -1.0, 3.0, 1.0])  # Gray: 00,01,10,11
_PAM8 = np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0])  # Gray 3-bit


def _bits_to_symbols(bits, modulation):
    bits = np.asarray(bits, dtype=np.int64)
    bps = modulation.bits_per_symbol
    if len(bits) % bps:
        raise ValueError("bit count not a multiple of bits per symbol")
    groups = bits.reshape(-1, bps)
    if modulation is Modulation.BPSK:
        return (2.0 * groups[:, 0] - 1.0).astype(np.complex128)
    half = bps // 2
    weights = 1 << np.arange(half - 1, -1, -1)
    i_idx = groups[:, :half] @ weights
    q_idx = groups[:, half:] @ weights
    pam = {Modulation.QPSK: _PAM2, Modulation.QAM16: _PAM4, Modulation.QAM64: _PAM8}[
        modulation
    ]
    scale = {Modulation.QPSK: np.sqrt(2.0), Modulation.QAM16: np.sqrt(10.0), Modulation.QAM64: np.sqrt(42.0)}[modulation]
    return (pam[i_idx] + 1j * pam[q_idx]) / scale


def _symbols_to_bits(symbols, modulation):
    symbols = np.asarray(symbols)
    if modulation is Modulation.BPSK:
        return (symbols.real > 0).astype(np.int64)
    pam = {Modulation.QPSK: _PAM2, Modulation.QAM16: _PAM4, Modulation.QAM64: _PAM8}[
        modulation
    ]
    scale = {Modulation.QPSK: np.sqrt(2.0), Modulation.QAM16: np.sqrt(10.0), Modulation.QAM64: np.sqrt(42.0)}[modulation]
    half = modulation.bits_per_symbol // 2
    out = np.empty((len(symbols), modulation.bits_per_symbol), dtype=np.int64)
    for axis, comp in enumerate((symbols.real * scale, symbols.imag * scale)):
        idx = np.argmin(np.abs(comp[:, None] - pam[None, :]), axis=1)
        for b in range(half):
            out[:, axis * half + b] = (idx >> (half - 1 - b)) & 1
    return out.reshape(-1)


def pilot_bins(cfg):
    """Four fixed pilot subcarriers (or fewer for tiny FFT sizes)."""
    signed = cfg.signed_index()
    quarter = max(1, cfg.fft_size // 9)
    targets = [quarter * 3, quarter, -quarter, -quarter * 3]
    bins = []
    for t in targets:
        cand = cfg.used_bins[np.argmin(np.abs(signed - t))]
        if cand not in bins:
            bins.append(int(cand))
    return tuple(sorted(bins))


_PILOT_VALUES = (1.0, 1.0, 1.0, -1.0)


def data_bins(cfg):
    p = set(pilot_bins(cfg))
    return tuple(b for b in cfg.used_subcarriers if b not in p)


def symbol_capacity_bits(mcs, cfg):
    """Information bits one data symbol can carry (coding-rate scaled)."""
    return int(np.floor(len(data_bins(cfg)) * mcs.bits_per_symbol * mcs.coding_rate))


def build_packet(payload_bits, meta, cfg=None):
    """Preamble + cyclic-prefixed data symbols.

    Payload bits modulate the data subcarriers directly (uncoded-equivalent);
    the coding rate only scales the information capacity used for the overflow
    check and airtime accounting. Unfilled raw bins carry deterministic
    scrambler-style padding bits so constellation power stays balanced.
    """
    cfg = cfg or meta.cfg
    payload_bits = np.asarray(payload_bits, dtype=np.int64)
    capacity = meta.n_symbols * symbol_capacity_bits(meta.mcs, cfg)
    if len(payload_bits) > capacity:
        raise ValueError("payload does not fit in n_symbols at this MCS")
    pre = generate_preamble(cfg)
    if meta.n_symbols == 0:
        return SampleBuffer(pre.samples.copy(), cfg.sample_rate, meta.tx_time)

    d_bins = np.asarray(data_bins(cfg), dtype=int)
    p_bins = np.asarray(pilot_bins(cfg), dtype=int)
    p_vals = np.asarray(_PILOT_VALUES[: len(p_bins)], dtype=np.complex128)
    bps = meta.mcs.bits_per_symbol
    raw_bits_needed = meta.n_symbols * len(d_bins) * bps
    pad_rng = np.random.default_rng(_TRAINING_SEED + 1)
    bits = pad_rng.integers(0, 2, raw_bits_needed)
    bits[: len(payload_bits)] = payload_bits
    syms = _bits_to_symbols(bits, meta.mcs.modulation).reshape(meta.n_symbols, len(d_bins))

    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    scale = n / np.sqrt(cfg.n_used)
    chunks = [pre.samples]
    for s in range(meta.n_symbols):
        spec = np.zeros(n, dtype=np.complex128)
        spec[d_bins] = syms[s]
        spec[p_bins] = p_vals
        td = np.fft.ifft(spec) * scale
        chunks.append(td[-cp:])
        chunks.append(td)
    return SampleBuffer(np.concatenate(chunks), cfg.sample_rate, meta.tx_time)


def demodulate_packet(buf, meta, cfg=None, n_bits=None):
    """Loopback demodulator: FFT each data symbol, slice the constellation."""
    cfg = cfg or meta.cfg
    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    d_bins = np.asarray(data_bins(cfg), dtype=int)
    scale = n / np.sqrt(cfg.n_used)
    out = []
    for s in range(meta.n_symbols):
        start = cfg.preamble_len + s * (n + cp) + cp
        win = buf.samples[start : start + n]
        spec = np.fft.fft(win) / scale
        out.append(_symbols_to_bits(spec[d_bins], meta.mcs.modulation))
    bits = np.concatenate(out) if out else np.zeros(0, dtype=np.int64)
    return bits if n_bits is None else bits[:n_bits]


# ---------------------------------------------------------------------------
# Detection and CSI extraction
# ---------------------------------------------------------------------------


@dataclass
class PreambleDetection:
    index: int
    metric: float


def detect_preamble(rx, cfg, threshold=0.5):
    """Locate a packet start by normalized delayed autocorrelation.

    The short training field repeats every fft_size/4 samples; the metric is
    |sum r[d+m] conj(r[d+m+lag])| / sqrt(P1 P2) over a short-training-sized
    window. A cross-correlation against the known preamble refines the coarse
    index to sample accuracy. Returns None when the metric never reaches the
    threshold.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must lie in (0, 1]")
    r = np.asarray(rx.samples, dtype=np.complex128)
    n = cfg.fft_size
    lag = n // 4
    w = cfg.stf_len - lag
    if len(r) < w + lag:
        return None
    prod = r[:-lag] * np.conj(r[lag:])
    p2 = np.abs(r[lag:]) ** 2
    p1 = np.abs(r[:-lag]) ** 2
    kern = np.ones(w)
    c = np.convolve(prod, kern, mode="valid")
    e2 = np.convolve(p2, kern, mode="valid")
    e1 = np.convolve(p1, kern, mode="valid")
    denom = np.sqrt(e1 * e2) + 1e-30
    metric = np.abs(c) / denom
    coarse = int(np.argmax(metric))
    if metric[coarse] < threshold:
        return None
    template = generate_preamble(cfg).samples
    lo = max(0, coarse - n)
    hi = min(len(r) - len(template), coarse + n)
    if hi < lo:
        return None
    best, best_score = lo, -1.0
    for d in range(lo, hi + 1):
        score = abs(np.dot(r[d : d + len(template)], np.conj(template)))
        if score > best_score:
            best, best_score = d, score
    return PreambleDetection(index=best, metric=float(min(metric[coarse], 1.0)))


def _csi_window(samples, offset, cfg):
    n = cfg.fft_size
    if offset < 0 or offset + n > len(samples):
        raise ValueError("training window out of bounds")
    return np.fft.fft(samples[offset : offset + n])


def extract_csi_symbols(rx, index, cfg, n_symbols=2):
    """Per-symbol CSI over a training burst (LTF pair + cyclic-prefixed repeats).

    Returns an (n_symbols, n_used) array; row l is the CSI measured from the
    l-th known training symbol, so per-symbol phase evolution is observable.
    """
    samples = rx.samples if isinstance(rx, SampleBuffer) else np.asarray(rx)
    ltf_vals = long_training_values(cfg) * _preamble_scale(cfg) * (
        cfg.fft_size / np.sqrt(cfg.n_used)
    )
    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    out = np.empty((n_symbols, cfg.n_used), dtype=np.complex128)
    for l in range(n_symbols):
        if l < 2:
            offset = index + cfg.ltf_window_offset + l * n
        else:
            offset = index + cfg.preamble_len + (l - 2) * (n + cp) + cp
        spec = _csi_window(samples, offset, cfg)
        out[l] = spec[cfg.used_bins] / ltf_vals
    return out


def extract_csi(rx, index, cfg, packet_id=0, timestamp=None):
    """Packet CSI from the two long training symbols (averaged).

    rx may be a single SampleBuffer or a list of per-antenna buffers; the
    result is indexed [rx_ant][tx_ant=1][subcarrier].
    """
    bufs = rx if isinstance(rx, (list, tuple)) else [rx]
    rows = []
    for buf in bufs:
        sym = extract_csi_symbols(buf, index, cfg, n_symbols=2)
        rows.append(sym.mean(axis=0))
    values = np.asarray(rows)[:, None, :]
    if timestamp is None:
        first = bufs[0]
        t0 = first.start_time if isinstance(first, SampleBuffer) else 0.0
        fs = first.sample_rate if isinstance(first, SampleBuffer) else cfg.sample_rate
        timestamp = t0 + index / fs
    return CsiMatrix(values, timestamp, packet_id)


def training_burst(cfg, n_extra=0):
    """Preamble followed by n_extra cyclic-prefixed repeats of the long symbol."""
    pre = generate_preamble(cfg)
    if n_extra == 0:
        return SampleBuffer(pre.samples.copy(), cfg.sample_rate)
    n = cfg.fft_size
    ltf_scaled = (
        _symbol_from_bins(cfg, cfg.used_bins, long_training_values(cfg))
        * _preamble_scale(cfg)
    )
    cp = cfg.cyclic_prefix_len
    chunks = [pre.samples]
    for _ in range(n_extra):
        chunks.append(ltf_scaled[-cp:])
        chunks.append(ltf_scaled)
    return SampleBuffer(np.concatenate(chunks), cfg.sample_rate)


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
    "MAX_FRAME_S",
    "RadioConfig",
    "Modulation",
    "Mcs",
    "MCS_TABLE",
    "PacketMeta",
    "CsiMatrix",
    "PreambleDetection",
    "packet_duration",
    "generate_preamble",
    "long_training_values",
    "build_packet",
    "demodulate_packet",
    "detect_preamble",
    "extract_csi",
    "extract_csi_symbols",
    "training_burst",
    "burst_symbol_spans",
    "pilot_bins",
    "data_bins",
    "symbol_capacity_bits",
]
