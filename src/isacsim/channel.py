"""Multipath scene simulation and receive-clock impairments.

Everything the receiver sees is built here, as packet-rate CSI: each
propagation path contributes an amplitude-scaled, delay-rotated term per
subcarrier, moving scatterers rotate the carrier phase as their two-hop path
length changes, the receiver's clock error smears phase across packets and
subcarriers, and complex Gaussian noise floors the result.

``resolve_paths`` turns a scene into per-packet (amplitude, delay, angle)
rows, one per path, for fixed and moving scatterers alike; a path's explicit
amplitude, delay or angle overrides the geometric value at every packet.

Conventions
-----------
* Positions are length-3 vectors in meters; times in seconds.
* A reflected path's received amplitude obeys the two-hop spreading law
  ``alpha**2 = P * g_tx * g_rx * lam**2 * rcs / ((4*pi)**3 * (r_tx*r_rx)**2)``.
* The direct tx->rx amplitude is normalized so the reflected-to-direct power
  ratio equals ``rcs * L / (4*pi * (r_tx*r_rx)**2)`` (see ``power_ratio``).
* Receiver clock terms rotate sample n by ``exp(-2j*pi*(cfo_hz*t + cpo))``;
  a sampling-rate skew ``sfo`` and a fractional timing offset ``pdd_extra``
  appear as phase ramps over the FFT bin index within each symbol window.
* Antenna 0 is the phase reference of a uniform linear array; element i sits
  ``i * array_spacing_wl`` wavelengths along the array axis.
"""

from dataclasses import dataclass

import numpy as np

from .ofdm import SPEED_OF_LIGHT, burst_symbol_spans
from .sigcore import TWO_PI, complex_noise, db, from_db

_MIN_RANGE = 1e-9
# clock tolerance of a drawn device profile: carrier and sample-rate errors
# are uniform within +/- this many parts per million
CLOCK_PPM = 20.0


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


def trajectory_positions(trajectory, times):
    """Evaluate a position function at many times -> (n, 3) array."""
    times = np.asarray(times, dtype=np.float64)
    pos = np.asarray(trajectory(times), dtype=np.float64)
    if pos.shape == (3,):
        pos = np.broadcast_to(pos, (times.size, 3)).copy()
    return pos


# ---------------------------------------------------------------------------
# scene description


@dataclass
class PropagationPath:
    """One scatterer's arrival at the receiver.

    Geometry is a fixed ``position`` or a ``trajectory`` (callable t ->
    position); the two-hop amplitude, delay and arrival angle follow from it
    at every packet time. An explicit ``amplitude`` (linear field gain on
    the transmit waveform), ``delay`` or ``aoa_deg`` overrides the geometric
    value, for fixed and moving paths alike. A path with neither position
    nor trajectory needs both ``delay`` and ``amplitude``; its angle defaults
    to boresight. Every number given must be finite.
    """

    position: object = None
    trajectory: object = None
    rcs: float = 1.0
    aoa_deg: float = None
    amplitude: float = None
    delay: float = None

    def __post_init__(self):
        if self.position is not None:
            self.position = np.asarray(self.position, dtype=np.float64)
            if self.position.shape != (3,):
                raise ValueError("position must be a 3-vector")
        for name in ("position", "rcs", "aoa_deg", "amplitude", "delay"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"path {name} must be finite")
        if self.delay is not None and self.delay < 0:
            raise ValueError("path delay must be non-negative")
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
    profile.
    """

    cfo_hz: float = 0.0
    cpo: float = 0.0
    sfo: float = 0.0
    pdd_extra: float = 0.0

    def __post_init__(self):
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


@dataclass
class ScenarioGeometry:
    """Node placement, antenna array, and the scatterers in the scene."""

    tx_pos: object = (0.0, 0.0, 0.0)
    rx_pos: object = (0.0, 0.0, 0.0)
    targets: tuple = ()
    tx_power_dbm: float = 5.0
    n_antennas: int = 1
    array_spacing_wl: float = 0.5
    boresight_deg: float = 0.0
    include_los: bool = True

    def __post_init__(self):
        self.tx_pos = np.asarray(self.tx_pos, dtype=np.float64)
        self.rx_pos = np.asarray(self.rx_pos, dtype=np.float64)
        if self.tx_pos.shape != (3,) or self.rx_pos.shape != (3,):
            raise ValueError("positions must be 3-vectors")
        for name in ("tx_pos", "rx_pos", "tx_power_dbm"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        self.targets = tuple(self.targets)
        if self.n_antennas < 1:
            raise ValueError("need at least one receive antenna")

    @property
    def los_distance(self):
        return float(np.linalg.norm(self.rx_pos - self.tx_pos))

    @property
    def monostatic(self):
        return self.los_distance < _MIN_RANGE

    def aoa_of(self, position):
        """Arrival angle (degrees) of a point, measured from array boresight."""
        d = np.asarray(position, dtype=np.float64) - self.rx_pos
        ang = np.degrees(np.arctan2(d[..., 1], d[..., 0])) - self.boresight_deg
        return (ang + 180.0) % 360.0 - 180.0


def steering_vector(aoa_deg, n_antennas, spacing_wl=0.5):
    """Array response of a uniform linear array, element 0 as phase reference.

    ``aoa_deg`` may be an array of angles; the result is (..., n_antennas).
    """
    idx = np.arange(n_antennas)
    sin = np.sin(np.radians(np.asarray(aoa_deg, dtype=np.float64)))[..., None]
    return np.exp(-2j * np.pi * idx * spacing_wl * sin)


def resolve_paths(geom, cfg, times, tx_power=1.0):
    """Resolve the scene at every time into (amplitude, delay, angle) rows.

    Returns three (n_paths, n_times) arrays: field amplitude, delay in
    seconds and arrival angle in degrees. The direct tx->rx path comes first
    for bistatic layouts unless the geometry disables it (``include_los``).
    A fixed ``position`` is broadcast over ``times`` and a ``trajectory`` is
    evaluated at each of them; a path's explicit amplitude, delay or angle
    overrides the geometric value. ``tx_power`` defaults to 1.0 so
    amplitudes act as field gains on the actual transmit waveform; pass a
    linear power to bake it in.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    los = int(geom.include_los and not geom.monostatic)
    alpha, delay, aoa = np.empty((3, los + len(geom.targets), times.size))
    if los:
        dist = geom.los_distance
        alpha[0] = los_gain(dist, cfg, tx_power)
        delay[0] = dist / SPEED_OF_LIGHT
        aoa[0] = geom.aoa_of(geom.tx_pos)
    for i, p in enumerate(geom.targets, start=los):
        if p.trajectory is None and p.position is None:
            if p.delay is None or p.amplitude is None:
                raise ValueError("path needs a position, a trajectory, or both "
                                 "an explicit delay and amplitude")
            gain, tau, angle = p.amplitude, p.delay, 0.0
        else:
            if p.trajectory is not None:
                pos = trajectory_positions(p.trajectory, times)
            else:
                pos = np.broadcast_to(p.position, (times.size, 3))
            r_tx = np.linalg.norm(pos - geom.tx_pos, axis=-1)
            r_rx = np.linalg.norm(pos - geom.rx_pos, axis=-1)
            if np.any(r_tx < _MIN_RANGE) or np.any(r_rx < _MIN_RANGE):
                raise ValueError("scatterer position coincides with tx or rx")
            gain = path_gain(r_tx, r_rx, p.rcs, cfg, tx_power)
            tau = (r_tx + r_rx) / SPEED_OF_LIGHT
            angle = geom.aoa_of(pos)
        alpha[i] = gain if p.amplitude is None else p.amplitude
        delay[i] = tau if p.delay is None else p.delay
        aoa[i] = angle if p.aoa_deg is None else p.aoa_deg
    return alpha, delay, aoa


# ---------------------------------------------------------------------------
# symbol-level clock impairments


def apply_clock_impairments(samples, cfg, imp):
    """Stamp clock error onto a training burst at symbol granularity.

    Returns a new array. The burst starts at sample 0, and every whole
    training symbol in it is stamped. Symbol l's samples (cyclic prefix
    included; the short training field rides with l=0) get the block rotation
    ``exp(-2j*pi*(l*cfo_hz/(df*n_fft) + cpo))``, and each analysis window is
    re-spun in the frequency domain by ``exp(-2j*pi*k*(sfo+pdd_extra)/n_fft)``
    over the raw FFT bin index k, with cyclic prefixes rebuilt to match. The
    measured subcarrier phases then follow the clock-error model exactly,
    which is what makes phase-accuracy checks meaningful.
    """
    values = np.array(samples, dtype=np.complex128)
    n = cfg.fft_size
    cp = cfg.cyclic_prefix_len
    if len(values) < cfg.preamble_len:
        raise ValueError("buffer too short for a training burst")
    n_symbols = 2 + (len(values) - cfg.preamble_len) // (n + cp)
    spans = burst_symbol_spans(cfg, n_symbols)

    skew = imp.sfo + imp.pdd_extra
    if skew != 0.0:
        ramp = np.exp(-2j * np.pi * np.arange(n) * skew / n)
        for l, (_, _, w0) in enumerate(spans):
            spun = np.fft.ifft(np.fft.fft(values[w0 : w0 + n]) * ramp)
            values[w0 : w0 + n] = spun
            if l == 0:
                values[cfg.stf_len : cfg.ltf_window_offset] = spun[-cfg.ltf_cp_len :]
            elif l >= 2:
                values[w0 - cp : w0] = spun[-cp:]

    step = imp.cfo_hz / (cfg.subcarrier_spacing * n)
    for l, (lo, hi, _) in enumerate(spans):
        values[lo:hi] *= np.exp(-2j * np.pi * (l * step + imp.cpo))
    return values


# ---------------------------------------------------------------------------
# packet-rate channel synthesis


def synthesize_csi_series(geom, cfg, times, imp=None, snr_db=None, rng=None):
    """Per-packet channel matrices for a sequence of measurement times.

    Returns an (n_packets, n_antennas, n_used) complex array. Each path
    that ``resolve_paths`` yields contributes
    ``alpha(t) * a(aoa(t)) * exp(-2j*pi*(f_c + f_k) * tau(t))``, where ``a``
    is the array steering vector and ``tau(t)`` the exact two-hop delay at
    each packet time unless the path fixes it, so scatterer motion shows up
    as carrier-phase rotation across packets. Clock impairments add the packet
    rotation ``exp(-2j*pi*(cfo_hz*t + cpo))`` and a fixed phase ramp over the
    FFT bin index. ``snr_db`` sets per-subcarrier noise relative to the
    strongest path's power.
    """
    times = np.asarray(times, dtype=np.float64)
    alpha, tau, aoa = resolve_paths(geom, cfg, times, from_db(geom.tx_power_dbm))
    rng = np.random.default_rng(rng)

    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    out = np.zeros((times.size, geom.n_antennas, cfg.n_used), dtype=np.complex128)
    strongest = 0.0
    for a, d, ang in zip(alpha, tau, aoa):
        steer = steering_vector(ang, geom.n_antennas, geom.array_spacing_wl)
        core = np.exp(-2j * np.pi * d[:, None] * freqs[None, :])
        out += a[:, None, None] * steer[:, :, None] * core[:, None, :]
        strongest = max(strongest, float(np.mean(np.abs(a) ** 2)))

    if imp is not None:
        packet_phase = np.exp(-2j * np.pi * (imp.cfo_hz * times + imp.cpo))
        skew = imp.sfo + imp.pdd_extra
        ramp = np.exp(-2j * np.pi * cfg.used_bins * skew / cfg.fft_size)
        out *= packet_phase[:, None, None] * ramp[None, None, :]

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
    "trajectory_positions",
    "PropagationPath",
    "ImpairmentProfile",
    "ScenarioGeometry",
    "steering_vector",
    "resolve_paths",
    "apply_clock_impairments",
    "synthesize_csi_series",
]
