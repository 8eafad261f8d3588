"""Multipath scene simulation and receive-clock impairments.

Everything the receiver sees is built here, as packet-rate CSI: each
propagation path contributes an amplitude-scaled, delay-rotated term per
subcarrier, moving scatterers rotate the carrier phase as their two-hop path
length changes, and complex Gaussian noise floors the result. Clock error
is modelled once, by ``ImpairmentProfile.phase``; ``apply_clock_impairments``
stamps it onto a training burst, whose extracted CSI then carries it.

``resolve_paths`` turns a scene into per-packet (amplitude, delay, angle)
rows, one per path, for fixed and moving scatterers alike; every value
follows from the path's geometry, so a scatterer is described only by where
it is (a ``position`` or a ``trajectory``) and how strongly it reflects.

Conventions
-----------
* Positions are length-3 vectors in meters; times in seconds.
* A reflected path's received amplitude obeys the two-hop spreading law
  ``alpha**2 = P * g_tx * g_rx * lam**2 * rcs / ((4*pi)**3 * (r_tx*r_rx)**2)``.
* The direct tx->rx amplitude is normalized so the reflected-to-direct power
  ratio equals ``rcs * L / (4*pi * (r_tx*r_rx)**2)`` (see ``power_ratio``).
* A delay ``tau`` puts ``delay_phase(tau, f) = exp(-2j*pi*tau*f)`` on
  frequency ``f``, over signed frequency: CSI synthesis and the clock model
  share this one map.
* Receiver clock terms live in ``ImpairmentProfile``: they rotate training
  symbol l by ``exp(-2j*pi*(l*cfo_hz/(df*n_fft) + cpo))``, and a
  sampling-rate skew ``sfo`` plus a fractional timing offset ``pdd_extra``
  (in samples) act as that many samples of delay within each symbol window.
* Antenna 0 is the phase reference of a uniform linear array; element i sits
  ``i * ARRAY_SPACING_WL`` wavelengths along the array axis.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .ofdm import SPEED_OF_LIGHT, burst_symbol_spans
from .sigcore import TWO_PI, complex_noise, db, from_db, wrap_deg

_MIN_RANGE = 1e-9
# clock tolerance of a drawn device profile: carrier and sample-rate errors
# are uniform within +/- this many parts per million
CLOCK_PPM = 20.0
# receive-array element spacing in wavelengths
ARRAY_SPACING_WL = 0.5


# ---------------------------------------------------------------------------
# amplitudes and geometry scalars


def path_gain(tx_range, rx_range, rcs, cfg, tx_power=1.0):
    """Received field amplitude of one reflected (two-hop) path.

    Accepts scalars or arrays for the ranges. A zero or negative range is a
    degenerate scene and raises. ``rcs=0`` gives exactly zero.
    """
    tx_range = np.asarray(tx_range, dtype=np.float64)
    rx_range = np.asarray(rx_range, dtype=np.float64)
    if np.any(tx_range <= 0) or np.any(rx_range <= 0):
        raise ValueError("path ranges must be positive (scatterer on top of a node?)")
    if rcs < 0:
        raise ValueError("rcs must be non-negative")
    if tx_power < 0:
        raise ValueError("tx_power must be non-negative")
    lam = cfg.wavelength
    a2 = tx_power * lam**2 * rcs / ((4.0 * np.pi) ** 3 * (tx_range * rx_range) ** 2)
    out = np.sqrt(a2)
    return float(out) if out.ndim == 0 else out


def los_gain(distance, cfg, tx_power=1.0):
    """Direct tx->rx field amplitude over separation ``distance``.

    Normalized so that ``path_gain(r_tx, r_rx, rcs, ...)`` relative to this
    amplitude reproduces ``power_ratio`` exactly.
    """
    distance = np.asarray(distance, dtype=np.float64)
    if np.any(distance <= 0):
        raise ValueError("direct-path distance must be positive")
    lam = cfg.wavelength
    a2 = tx_power * lam**2 / ((4.0 * np.pi) ** 2 * distance)
    out = np.sqrt(a2)
    return float(out) if out.ndim == 0 else out


def power_ratio(los_distance, tx_range, rx_range, rcs=1.0):
    """Reflected-to-direct power ratio in dB: ``rcs*L / (4*pi*(r_tx*r_rx)**2)``.

    Requires a bistatic layout: a zero separation has no direct path to
    compare against and raises.
    """
    if los_distance <= 0:
        raise ValueError("reflected-to-direct ratio needs tx/rx separation > 0")
    if tx_range <= 0 or rx_range <= 0:
        raise ValueError("path ranges must be positive")
    if rcs < 0:
        raise ValueError("rcs must be non-negative")
    return db(rcs * los_distance / (4.0 * np.pi * (tx_range * rx_range) ** 2))


def bistatic_projection(tx_pos, rx_pos, target_pos, displacement):
    """Two-hop path-length change when the target moves by ``displacement``.

    Positive when the move lengthens ``|target-tx| + |target-rx|``. Motion
    tangent to the constant-path-length ellipsoid through the target returns
    (numerically) zero. Raises if the target sits on either node.
    """
    tx_pos = np.asarray(tx_pos, dtype=np.float64)
    rx_pos = np.asarray(rx_pos, dtype=np.float64)
    p0 = np.asarray(target_pos, dtype=np.float64)
    p1 = p0 + np.asarray(displacement, dtype=np.float64)

    def _length(p):
        r_tx = np.linalg.norm(p - tx_pos)
        r_rx = np.linalg.norm(p - rx_pos)
        if r_tx < _MIN_RANGE or r_rx < _MIN_RANGE:
            raise ValueError("target position coincides with tx or rx")
        return r_tx + r_rx

    return _length(p1) - _length(p0)


# ---------------------------------------------------------------------------
# trajectories


def linear_trajectory(start, velocity):
    """Constant-velocity position function of absolute time."""
    start = np.asarray(start, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)

    def position(t):
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            return start + float(t) * velocity
        return start[None, :] + t[:, None] * velocity[None, :]

    return position


# ---------------------------------------------------------------------------
# scene description


@dataclass
class PropagationPath:
    """One scatterer's arrival at the receiver.

    Geometry is exactly one of a fixed ``position`` or a ``trajectory``
    (callable t -> position); the two-hop amplitude, delay and arrival angle
    follow from it at every packet time. ``rcs`` scales the reflected power.
    The position and rcs must be finite.
    """

    position: object = None
    trajectory: object = None
    rcs: float = 1.0

    def __post_init__(self):
        if (self.position is None) == (self.trajectory is None):
            raise ValueError("path needs exactly one of a position or a "
                             "trajectory")
        if self.position is not None:
            self.position = np.asarray(self.position, dtype=np.float64)
            if self.position.shape != (3,):
                raise ValueError("position must be a 3-vector")
            if not np.all(np.isfinite(self.position)):
                raise ValueError("path position must be finite")
        if not np.isfinite(self.rcs):
            raise ValueError("path rcs must be finite")
        if self.rcs < 0:
            raise ValueError("rcs must be non-negative")
        if self.trajectory is not None and not callable(self.trajectory):
            raise ValueError("trajectory must be callable")


@dataclass
class ImpairmentProfile:
    """Receive-clock error terms relative to the transmitter.

    ``cpo`` is a cycle-scaled constant offset (the rotation applied is
    ``exp(-2j*pi*cpo)``), kept in [0, 2*pi). ``sfo`` is the fractional
    sampling-rate skew, ``pdd_extra`` an additional (possibly fractional)
    sampling offset in samples. The terms are fixed for the life of the
    profile, and every one must be finite.
    """

    cfo_hz: float = 0.0
    cpo: float = 0.0
    sfo: float = 0.0
    pdd_extra: float = 0.0

    def __post_init__(self):
        for name in ("cfo_hz", "sfo", "pdd_extra"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.cpo < TWO_PI:
            raise ValueError("cpo must lie in [0, 2*pi)")
        if abs(self.sfo) >= 1e-3:
            raise ValueError("sfo skew beyond 1000 ppm is not supported")

    @classmethod
    def monostatic(cls, cpo=0.0):
        """Shared tx/rx clock: no frequency, rate, or timing error; fixed cpo."""
        return cls(cfo_hz=0.0, cpo=cpo, sfo=0.0, pdd_extra=0.0)

    @classmethod
    def sample(cls, cfg, rng):
        """Draw a device-boot profile: +/-CLOCK_PPM clock errors, uniform cpo."""
        cfo = rng.uniform(-CLOCK_PPM, CLOCK_PPM) * 1e-6 * cfg.carrier_freq
        sfo = rng.uniform(-CLOCK_PPM, CLOCK_PPM) * 1e-6
        cpo = rng.uniform(0.0, TWO_PI)
        eps = rng.uniform(0.0, 1.0)
        return cls(cfo_hz=cfo, cpo=cpo, sfo=sfo, pdd_extra=eps)

    def phase(self, cfg, n_symbols, freqs):
        """(n_symbols, n_freqs) phase this clock puts on each training
        symbol at baseband frequencies ``freqs`` (Hz, signed): symbol l's
        CFO/CPO rotation times ``delay_phase`` of the ``sfo + pdd_extra``
        sample offset."""
        step = self.cfo_hz / (cfg.subcarrier_spacing * cfg.fft_size)
        rotation = np.exp(-2j * np.pi * (np.arange(n_symbols) * step + self.cpo))
        offset = (self.sfo + self.pdd_extra) / cfg.sample_rate
        return rotation[:, None] * delay_phase(offset, freqs)


@dataclass
class ScenarioGeometry:
    """Node placement, antenna array, and the scatterers in the scene."""

    tx_pos: object = (0.0, 0.0, 0.0)
    rx_pos: object = (0.0, 0.0, 0.0)
    targets: tuple = ()
    tx_power_dbm: float = 5.0
    n_antennas: int = 1
    boresight_deg: float = 0.0

    def __post_init__(self):
        self.tx_pos = np.asarray(self.tx_pos, dtype=np.float64)
        self.rx_pos = np.asarray(self.rx_pos, dtype=np.float64)
        if self.tx_pos.shape != (3,) or self.rx_pos.shape != (3,):
            raise ValueError("positions must be 3-vectors")
        for name in ("tx_pos", "rx_pos", "tx_power_dbm", "boresight_deg"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        self.targets = tuple(self.targets)
        n = self.n_antennas
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_antennas must be a positive integer, got {n!r}")

    @property
    def los_distance(self):
        return float(np.linalg.norm(self.rx_pos - self.tx_pos))

    @property
    def monostatic(self):
        return self.los_distance < _MIN_RANGE

    def aoa_of(self, position):
        """Arrival angle (degrees) of a point, measured from array boresight."""
        d = np.asarray(position, dtype=np.float64) - self.rx_pos
        return wrap_deg(np.degrees(np.arctan2(d[..., 1], d[..., 0]))
                        - self.boresight_deg)


def delay_phase(delays, freqs):
    """Phase ``exp(-2j*pi*tau*f)`` a delay ``tau`` (s) puts on frequency
    ``f`` (Hz): (..., n_freqs) for delays of shape (...), over the signed
    frequencies given."""
    return np.exp(-2j * np.pi * np.asarray(delays)[..., None] * freqs)


def steering_vector(aoa_deg, n_antennas):
    """Array response of a uniform linear array, element 0 as phase reference.

    ``aoa_deg`` may be an array of angles; the result is (..., n_antennas).
    """
    idx = np.arange(n_antennas)
    sin = np.sin(np.radians(np.asarray(aoa_deg, dtype=np.float64)))[..., None]
    return np.exp(-2j * np.pi * idx * ARRAY_SPACING_WL * sin)


def resolve_paths(geom, cfg, times, tx_power=1.0):
    """Resolve the scene at every time into (amplitude, delay, angle) rows.

    Returns three (n_paths, n_times) arrays: field amplitude, delay in
    seconds and arrival angle in degrees. The direct tx->rx path comes first
    exactly when the layout is bistatic; a monostatic one has none.
    A fixed ``position`` is broadcast over ``times``; a ``trajectory`` is
    called once on all of them and may return one position per time or a
    single position for every time. ``tx_power`` defaults to 1.0 so
    amplitudes act as field gains on the actual transmit waveform; pass a
    linear power to bake it in.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    los = int(not geom.monostatic)
    alpha, delay, aoa = np.empty((3, los + len(geom.targets), times.size))
    if los:
        dist = geom.los_distance
        alpha[0] = los_gain(dist, cfg, tx_power)
        delay[0] = dist / SPEED_OF_LIGHT
        aoa[0] = geom.aoa_of(geom.tx_pos)
    for i, p in enumerate(geom.targets, start=los):
        if p.trajectory is not None:
            pos = np.asarray(p.trajectory(times), dtype=np.float64)
            if not np.all(np.isfinite(pos)):
                raise ValueError("trajectory positions must be finite")
        else:
            pos = np.broadcast_to(p.position, (times.size, 3))
        r_tx = np.linalg.norm(pos - geom.tx_pos, axis=-1)
        r_rx = np.linalg.norm(pos - geom.rx_pos, axis=-1)
        if np.any(r_tx < _MIN_RANGE) or np.any(r_rx < _MIN_RANGE):
            raise ValueError("scatterer position coincides with tx or rx")
        alpha[i] = path_gain(r_tx, r_rx, p.rcs, cfg, tx_power)
        delay[i] = (r_tx + r_rx) / SPEED_OF_LIGHT
        aoa[i] = geom.aoa_of(pos)
    return alpha, delay, aoa


# ---------------------------------------------------------------------------
# symbol-level clock impairments


def apply_clock_impairments(samples, cfg, imp):
    """Stamp clock error onto a training burst at symbol granularity.

    Returns a new array. The burst starts at sample 0, and every whole
    training symbol in it is stamped. Each symbol's analysis window is
    re-spun in the frequency domain by its row of ``imp.phase`` over the
    signed frequency of every FFT bin, and its cyclic prefix is rebuilt from
    the window; the short training field rides with symbol 0 and takes its
    rotation. The measured subcarrier phases then follow the clock-error
    model exactly, which is what makes phase-accuracy checks meaningful.
    """
    values = np.array(samples, dtype=np.complex128)
    n = cfg.fft_size
    if len(values) < cfg.preamble_len:
        raise ValueError("buffer too short for a training burst")
    n_symbols = 2 + (len(values) - cfg.preamble_len) // (n + cfg.cyclic_prefix_len)
    phase = imp.phase(cfg, n_symbols, np.fft.fftfreq(n, 1.0 / cfg.sample_rate))
    for row, (w0, p0) in zip(phase, burst_symbol_spans(cfg, n_symbols)):
        spun = np.fft.ifft(np.fft.fft(values[w0 : w0 + n]) * row)
        # negative indices pick the window's tail for the prefix
        values[p0 : w0 + n] = spun[np.arange(p0 - w0, n)]
    # bin 0 is DC, where the row is symbol 0's rotation alone
    values[: cfg.stf_len] *= phase[0, 0]
    return values


# ---------------------------------------------------------------------------
# packet-rate channel synthesis


def synthesize_csi_series(geom, cfg, times, snr_db=None, rng=None):
    """Per-packet channel matrices for a sequence of measurement times.

    Returns an (n_packets, n_antennas, n_used) complex array. Each path
    that ``resolve_paths`` yields contributes
    ``alpha(t) * a(aoa(t)) * delay_phase(tau(t), f_c + f_k)``, where ``a``
    is the array steering vector and ``tau(t)`` the exact two-hop delay at
    each packet time, so scatterer motion shows up
    as carrier-phase rotation across packets. The series is free of clock
    error (``apply_clock_impairments`` stamps that on waveforms). ``snr_db``
    sets per-subcarrier noise relative to the strongest path's power; it
    must be finite, and None adds no noise.
    """
    if snr_db is not None and not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite (None means no noise)")
    times = np.asarray(times, dtype=np.float64)
    alpha, tau, aoa = resolve_paths(geom, cfg, times, from_db(geom.tx_power_dbm))
    rng = np.random.default_rng(rng)

    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    out = np.zeros((times.size, geom.n_antennas, cfg.n_used), dtype=np.complex128)
    strongest = 0.0
    for a, d, ang in zip(alpha, tau, aoa):
        steer = steering_vector(ang, geom.n_antennas)
        # a path whose delay is the same at every packet (every bistatic
        # LOS path, a fixed scatterer) needs one phase row, broadcast
        fixed = d[:1] if np.all(d == d[0]) else d
        core = delay_phase(fixed, freqs)
        out += a[:, None, None] * steer[:, :, None] * core[:, None, :]
        strongest = max(strongest, float(np.mean(np.abs(a) ** 2)))

    if snr_db is not None:
        if strongest == 0.0:
            raise ValueError("cannot scale noise to an all-zero scene")
        noise_dbm = db(strongest) - snr_db
        noise = complex_noise(out.size, noise_dbm, rng).reshape(out.shape)
        out += noise
    return out


__all__ = [
    "path_gain",
    "los_gain",
    "power_ratio",
    "bistatic_projection",
    "linear_trajectory",
    "PropagationPath",
    "ImpairmentProfile",
    "ScenarioGeometry",
    "delay_phase",
    "steering_vector",
    "resolve_paths",
    "apply_clock_impairments",
    "synthesize_csi_series",
]
