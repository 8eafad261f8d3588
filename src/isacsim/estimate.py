"""Channel-feature estimation from packet-time CSI.

The centerpiece is a sparse delay/Doppler estimator that works directly on
irregularly spaced packets: it builds the nonuniform dictionary whose atoms
are ``exp(-2j*pi*(f_c+f_k)*tau_i) * exp(-2j*pi*nu_j*T_l)`` and solves an
l1-penalized least-squares problem with ADMM. Classical baselines (inverse
transform across subcarriers, subspace pseudospectra for delay and angle,
packet-rate FFT Doppler) are included because their failure modes under
irregular sampling are exactly what the sparse path fixes.

Every estimator takes CSI in one shape, the (packets, antennas,
subcarriers) array that ``channel.synthesize_csi_series`` returns, and
raises ValueError on any other. All but the arrival-angle estimator read
antenna 0, the array's phase reference.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import steering_vector
from .ofdm import SPEED_OF_LIGHT


# ---------------------------------------------------------------------------
# schedules and containers


@dataclass
class TxSchedule:
    """Packet transmit times; gaps may be anything as long as time moves on."""

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("schedule needs a non-empty 1-D time sequence")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("schedule times must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must be strictly increasing")

    def __len__(self):
        return self.times.size

    def is_uniform(self):
        """Whether every gap matches the first to a relative 1e-6."""
        if len(self) < 3:
            return True
        gaps = np.diff(self.times)
        return bool(np.all(np.abs(gaps - gaps[0]) <= 1e-6 * gaps[0]))


@dataclass
class FeatureVector:
    """Sparse coefficients on a delay x Doppler grid, plus solver diagnostics."""

    delay_grid: np.ndarray
    doppler_grid: np.ndarray
    coefficients: np.ndarray
    converged: bool = True
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0

    def __post_init__(self):
        self.delay_grid = np.asarray(self.delay_grid, dtype=np.float64)
        self.doppler_grid = np.asarray(self.doppler_grid, dtype=np.float64)
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != (self.delay_grid.size, self.doppler_grid.size):
            raise ValueError("coefficient grid must be (n_delays, n_dopplers)")
        if self.coefficients.size and not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    def dominant(self, min_doppler_hz=None):
        """(delay_s, doppler_hz, coefficient) of the largest atom.

        ``min_doppler_hz`` restricts the search to atoms moving at least
        that fast; that is how a caller pulls a moving target out of static
        clutter sharing the capture, which delay-only estimators cannot do.
        """
        mags = np.abs(self.coefficients)
        if min_doppler_hz is not None:
            moving = np.abs(self.doppler_grid) >= min_doppler_hz
            if not np.any(moving):
                raise ValueError("no atoms beyond the Doppler cutoff")
            mags = np.where(moving[None, :], mags, 0.0)
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        return (
            float(self.delay_grid[i]),
            float(self.doppler_grid[j]),
            complex(self.coefficients[i, j]),
        )


@dataclass
class SensingEstimate:
    """One device's view of one target."""

    tof: float = None
    range_m: float = None
    aoa_deg: float = None
    velocity: float = None
    confidence: float = 1.0

    def __post_init__(self):
        if self.tof is not None and self.range_m is None:
            self.range_m = SPEED_OF_LIGHT * self.tof / 2.0
        elif self.range_m is not None and self.tof is None:
            self.tof = 2.0 * self.range_m / SPEED_OF_LIGHT
        elif self.tof is not None and self.range_m is not None:
            if not np.isclose(self.range_m, SPEED_OF_LIGHT * self.tof / 2.0,
                              rtol=1e-6):
                raise ValueError("range and time-of-flight disagree")
        if self.aoa_deg is not None and not -90.0 <= self.aoa_deg <= 90.0:
            raise ValueError("arrival angle must lie in [-90, 90] degrees")


def _csi_3d(csi):
    """``csi`` as a complex (packets, antennas, subcarriers) array."""
    arr = np.asarray(csi, dtype=np.complex128)
    if arr.ndim != 3:
        raise ValueError("CSI must be a (packets, antennas, subcarriers) "
                         f"array, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# ADMM lasso


LassoResult = namedtuple("LassoResult", "coefficients converged iterations "
                         "objectives primal_residual dual_residual")


def _soft_threshold(x, kappa):
    # scale = 1 - kappa/max(|x|, kappa): exactly 0 where |x| <= kappa
    scale = np.abs(x)
    np.maximum(scale, kappa, out=scale)
    np.divide(kappa, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return x * scale


def _kron_apply(mats, x):
    """``(M_1 kron ... kron M_m) @ x``, x flattened row-major, one axis per M_k.

    The last factor multiplies from the right and each earlier one on its
    own axis, so every step's result is already row-major.
    """
    *head, last = mats
    x = x.reshape(-1, last.shape[1]) @ last.T
    post = last.shape[0]
    for m in reversed(head):
        x = m @ x.reshape(-1, m.shape[1], post)
        post *= m.shape[0]
    return x.reshape(-1)


def _rotation(factors):
    """Rotate A = F_1 kron ... kron F_m onto orthogonal rows.

    An ``eigh`` of each factor's row Gram matrix, F_k F_k^H =
    U_k diag(e_k) U_k^H, gives W_k = U_k^H F_k. With U, W and e the
    Kronecker products of the U_k, W_k and e_k, A = U W with U unitary and
    W W^H = diag(e). Returns ``(ws, uhs, e)``, the W_k, the U_k^H and e.
    """
    ws, uhs, e = [], [], np.ones(1)
    for f in factors:
        ek, u = np.linalg.eigh(f @ f.conj().T)
        uhs.append(u.conj().T)
        ws.append(uhs[-1] @ f)
        e = np.multiply.outer(e, ek).reshape(-1)
    return ws, uhs, e


def admm_lasso(factors, y, lam, rho=None, max_iters=200, tol=1e-6):
    """Solve min 0.5*||A x - y||^2 + lam*||x||_1 for A = F_1 kron ... kron F_m.

    ``factors`` are A's Kronecker factors (a dense A is ``(a,)``) and x is
    flattened row-major, one axis per factor. The solve runs in the rotated
    measurement space A = U W of ``_rotation``, taken once per call. With
    v = z - u and y~ = U^H y, the exact x-update
    (A^H A + rho I)^{-1} (A^H y + rho v) is, by the push-through identity,
    ``x = v + W^H w`` with ``w = (y~ - W v) / (e + rho)``, and
    ``W x = W v + e * w`` needs no product. Keeping W z and W u beside z
    and u, an iteration costs two dense products, ``W^H w`` and ``W z``;
    the objective's residual is ``W z - y~`` because U is unitary. A^H y is
    never formed and rho enters the update only through ``1/(e + rho)``.
    ``rho`` defaults to ||A||^2 = max(e), which damps the splitting enough
    that the objective decreases essentially monotonically instead of
    ringing toward the optimum. The returned LassoResult's ``converged`` is
    False when the stopping criteria were not met within ``max_iters`` —
    callers must check it rather than trust a silently truncated solve —
    and it carries the final primal and dual residual norms. The solve
    stops when the primal residual is small and either the dual residual is
    small too or the objective has been stationary (relative change below
    ``tol``) for five consecutive iterations; the latter matters for highly
    coherent dictionaries, where near-identical neighboring atoms trade
    coefficient mass at a vanishing rate long after the objective settled.
    """
    if lam <= 0 or (rho is not None and rho <= 0):
        raise ValueError("lam and rho must be positive")
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.size != np.prod([f.shape[0] for f in factors]):
        raise ValueError("operator output size does not match y")
    ws, uhs, e = _rotation(factors)
    whs = [w.conj().T for w in ws]
    if rho is None:
        rho = max(float(e.max()), 1e-8)
    gain = 1.0 / (e + rho)
    y_rot = _kron_apply(uhs, y)

    n = int(np.prod([f.shape[1] for f in factors]))
    z = u = np.zeros(n, dtype=np.complex128)
    wz = wu = np.zeros_like(y_rot)
    objectives = []
    converged = False
    iterations = 0
    stalled = 0
    r_norm = s_norm = np.inf
    sqrt_n = np.sqrt(n)
    for it in range(max_iters):
        iterations = it + 1
        wv = wz - wu
        w_step = (y_rot - wv) * gain
        x = z - u + _kron_apply(whs, w_step)
        wx = wv + e * w_step
        z_old = z
        z = _soft_threshold(x + u, lam / rho)
        u = u + x - z
        wz = _kron_apply(ws, z)
        wu = wu + wx - wz

        resid = wz - y_rot
        objectives.append(0.5 * np.vdot(resid, resid).real
                          + lam * np.sum(np.abs(z)))
        if len(objectives) >= 2 and abs(objectives[-1] - objectives[-2]) <= (
            tol * max(1.0, abs(objectives[-2]))
        ):
            stalled += 1
        else:
            stalled = 0

        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_old)
        eps_pri = sqrt_n * tol + tol * max(np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = sqrt_n * tol + tol * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and (s_norm <= eps_dual or stalled >= 5):
            converged = True
            break
    return LassoResult(z, converged, iterations, np.asarray(objectives),
                       float(r_norm), float(s_norm))


# ---------------------------------------------------------------------------
# sparse delay/Doppler estimation


def dictionary_matrices(sched, cfg, delay_grid, doppler_grid):
    """The separable nonuniform dictionary: per-subcarrier and per-packet parts."""
    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    d_mat = np.exp(-2j * np.pi * np.outer(freqs, delay_grid))
    g_mat = np.exp(-2j * np.pi * np.outer(sched.times, doppler_grid))
    return d_mat, g_mat


def estimate_features_sparse(csi_series, sched, cfg, delay_grid, doppler_grid,
                             max_iters=80, tol=1e-3):
    """Sparse delay/Doppler atoms straight from irregular packet times.

    Antenna 0's (packets x subcarriers) series is modeled as
    ``G Gamma^T D^T``, with the Doppler part G evaluated at the actual
    transmit instants, so nothing assumes uniform sampling. ``admm_lasso``
    solves it as the dictionary ``G kron D`` acting on Gamma^T, rotated by
    one small ``eigh`` each of G G^H and D D^H per call onto orthogonal
    rows: an iteration is an exact x-update with no inner iterative solve
    and costs two products the size of one dictionary application. The l1
    weight is 0.1 times the largest correlation with the data, the one
    place A^H y is formed. The default tolerance is loose
    because peak positions stabilize long before the coefficients between
    near-identical neighboring atoms do; tighten it when the coefficient
    values themselves matter. The result carries the solve's iteration
    count and final primal and dual residuals.
    """
    h = _csi_3d(csi_series)[:, 0, :]
    if h.shape[0] != len(sched):
        raise ValueError("need one CSI row per scheduled packet")
    if h.size == 0:
        raise ValueError("empty CSI series")
    delay_grid = np.asarray(delay_grid)
    doppler_grid = np.asarray(doppler_grid)
    d_mat, g_mat = dictionary_matrices(sched, cfg, delay_grid, doppler_grid)
    n_l, n_k = h.shape
    n_d, n_v = delay_grid.size, doppler_grid.size
    # h = G' Gamma^T D^T with G' = G/sqrt(n_l*n_k): y = (G' kron D) vec(Gamma^T)
    factors = (g_mat / np.sqrt(n_l * n_k), d_mat)
    y = h.reshape(-1)
    lam = 0.1 * float(np.max(np.abs(
        _kron_apply([f.conj().T for f in factors], y))))
    if lam == 0.0:
        coef = np.zeros((n_d, n_v), dtype=np.complex128)
        return FeatureVector(delay_grid, doppler_grid, coef, converged=True)
    result = admm_lasso(factors, y, lam, max_iters=max_iters, tol=tol)
    coef = result.coefficients.reshape(n_v, n_d).T
    return FeatureVector(delay_grid, doppler_grid, coef, result.converged,
                         result.iterations, result.primal_residual,
                         result.dual_residual)


def matched_filter_peak(csi_series, sched, cfg, delay_grid, doppler_grid):
    """Dense correlation search over the same dictionary (baseline oracle)."""
    h = _csi_3d(csi_series)[:, 0, :]
    d_mat, g_mat = dictionary_matrices(sched, cfg, delay_grid, doppler_grid)
    corr = np.abs(d_mat.conj().T @ h.T @ g_mat.conj())
    i, j = np.unravel_index(np.argmax(corr), corr.shape)
    return float(delay_grid[i]), float(doppler_grid[j])


# ---------------------------------------------------------------------------
# classical range baselines


def ifft_range_profile(csi, cfg):
    """Coarse power-delay profile from an inverse transform across bins."""
    # coherent packet averaging: the traditional pre-processing step,
    # and the reason slow-moving targets wash out of this baseline
    h = _csi_3d(csi)[:, 0, :].mean(axis=0)
    if h.size < 2:
        raise ValueError("need at least two subcarriers")
    n = cfg.fft_size
    spec = np.zeros(n, dtype=np.complex128)
    spec[cfg.used_bins] = h
    profile = np.abs(np.fft.ifft(spec))
    delays = np.arange(n) / cfg.sample_rate
    ranges = SPEED_OF_LIGHT * delays / 2.0
    return ranges, profile


def range_ifft(csi, cfg):
    """Strongest bin of the inverse-transform profile, as a monostatic range.

    Resolution is hard-limited by the swept bandwidth: c/(2B), i.e. 7.5 m
    bins for a 20 MHz channel.
    """
    ranges, profile = ifft_range_profile(csi, cfg)
    half = len(profile) // 2 + 1
    return float(ranges[int(np.argmax(profile[:half]))])


MusicResult = namedtuple("MusicResult", "values degraded grid spectrum")


def _top_peaks(grid, spectrum, count):
    interior = np.zeros(spectrum.size, dtype=bool)
    if spectrum.size >= 3:
        interior[1:-1] = (spectrum[1:-1] >= spectrum[:-2]) & (
            spectrum[1:-1] >= spectrum[2:]
        )
    interior[0] = spectrum.size > 1 and spectrum[0] > spectrum[1]
    interior[-1] = spectrum.size > 1 and spectrum[-1] > spectrum[-2]
    candidates = np.flatnonzero(interior)
    if candidates.size < count:
        extras = np.argsort(spectrum)[::-1]
        candidates = np.unique(np.concatenate([candidates, extras[:count]]))
    order = candidates[np.argsort(spectrum[candidates])[::-1]]
    return grid[order[:count]]


def _music(snapshots, n_sources, grid, steer):
    """Subspace pseudospectrum of (n_snapshots, m) ``snapshots`` on ``grid``.

    ``steer`` is the (m, grid size) steering matrix. Returns the
    ``n_sources`` highest peaks, whether the covariance is rank-deficient
    (fewer snapshots than sensors), and the spectrum.
    """
    m = snapshots.shape[1]
    degraded = snapshots.shape[0] < m
    cov = (snapshots.T @ snapshots.conj()) / snapshots.shape[0]
    _, vecs = np.linalg.eigh(cov)
    noise = vecs[:, : m - n_sources]
    denom = np.sum(np.abs(noise.conj().T @ steer) ** 2, axis=0)
    spectrum = 1.0 / np.maximum(denom, 1e-18)
    return _top_peaks(grid, spectrum, n_sources), degraded, spectrum


def _contiguous_runs(signed):
    """Split a sorted signed-index array into runs with unit spacing."""
    breaks = np.flatnonzero(np.diff(signed) != 1)
    return np.split(np.arange(signed.size), breaks + 1)


def range_music(csi, n_paths, cfg, grid=None, subarray_len=16):
    """Subspace delay pseudospectrum with frequency smoothing.

    CSI bins are grouped into contiguous equally spaced runs, and sliding
    subarrays of ``subarray_len`` bins inside each run (across all packets)
    supply the covariance snapshots; smoothing over start offsets is what
    decorrelates same-scene static paths.
    """
    if n_paths < 1:
        raise ValueError("need at least one path to look for")
    if subarray_len <= n_paths:
        raise ValueError("subarray too short for the requested model order")
    arr = _csi_3d(csi)[:, 0, :]

    signed = cfg.signed_index()
    order = np.argsort(signed)
    signed_sorted = signed[order]
    arr = arr[:, order]

    snapshots = []
    for run in _contiguous_runs(signed_sorted):
        if run.size < subarray_len:
            continue
        block = arr[:, run]
        for start in range(run.size - subarray_len + 1):
            snapshots.append(block[:, start : start + subarray_len])
    if not snapshots:
        raise ValueError("no contiguous bin run is as long as the subarray")
    stack = np.concatenate(snapshots, axis=0)  # (n_snapshots, subarray_len)
    if grid is None:
        grid = np.arange(0.0, 500e-9, 1e-9)
    grid = np.asarray(grid, dtype=np.float64)
    steer = np.exp(
        -2j
        * np.pi
        * cfg.subcarrier_spacing
        * np.outer(np.arange(subarray_len), grid)
    )
    delays, degraded, spectrum = _music(stack, n_paths, grid, steer)
    return MusicResult(SPEED_OF_LIGHT * delays / 2.0, degraded, grid, spectrum)


def aoa_music(csi, n_sources, spacing_wl=0.5, grid=None):
    """Subspace arrival-angle pseudospectrum over the antenna dimension."""
    arr = _csi_3d(csi)
    n_ant = arr.shape[1]
    if not 1 <= n_sources < n_ant:
        raise ValueError("source count must be below the antenna count")
    if grid is None:
        grid = np.arange(-90.0, 90.0 + 1e-9, 0.5)
    grid = np.asarray(grid, dtype=np.float64)
    snapshots = np.moveaxis(arr, 1, 2).reshape(-1, n_ant)
    steer = steering_vector(grid, n_ant, spacing_wl).T
    angles, degraded, spectrum = _music(snapshots, n_sources, grid, steer)
    return MusicResult(angles, degraded, grid, spectrum)


# ---------------------------------------------------------------------------
# velocity


def velocity_fft(csi_series, sched, cfg):
    """Packet-rate Doppler peak, monostatic velocity magnitude.

    Only defined for uniform schedules — the transform has no notion of
    sample positions, which is this baseline's defining weakness. The packet
    rate must exceed twice the Doppler being measured (a 3.5 m/s target at
    2.4 GHz needs > 112 packets/s) or the peak aliases. With at least 8
    packets the per-subcarrier mean (the static paths) is removed first.
    """
    if not sched.is_uniform():
        raise ValueError("transform baseline requires a uniform schedule")
    h = _csi_3d(csi_series)[:, 0, :]
    if h.shape[0] != len(sched):
        raise ValueError("need one CSI row per scheduled packet")
    if h.shape[0] >= 8:
        h = h - h.mean(axis=0, keepdims=True)
    n_fft = 8 * h.shape[0]  # zero-padded eightfold
    spec = np.fft.fft(h, n=n_fft, axis=0)
    power = np.sum(np.abs(spec) ** 2, axis=1)
    dt = float(np.mean(np.diff(sched.times))) if len(sched) > 1 else 1.0
    freqs = np.fft.fftfreq(n_fft, d=dt)
    f_peak = freqs[int(np.argmax(power))]
    return abs(f_peak) * cfg.wavelength / 2.0


def snap_to_uniform(csi_series, sched):
    """Naive regularization: snap each uniform grid slot to the nearest packet.

    This is the obvious (and wrong) way to feed irregular packets to the
    transform baseline; it exists to measure how badly that goes. Returns
    the snapped (packets, antennas, subcarriers) series and its schedule.
    """
    h = _csi_3d(csi_series)
    times = sched.times
    grid = np.linspace(times[0], times[-1], len(sched))
    idx = np.clip(np.searchsorted(times, grid), 0, len(times) - 1)
    left = np.maximum(idx - 1, 0)
    choose_left = np.abs(times[left] - grid) <= np.abs(times[idx] - grid)
    nearest = np.where(choose_left, left, idx)
    return h[nearest], TxSchedule(grid)


def velocity_sparse(csi_series, sched, cfg, doppler_grid, delay_grid=None,
                    **solver_kwargs):
    """Velocity magnitude from the dominant sparse Doppler atom."""
    if len(sched) < 8:
        raise ValueError("need at least 8 packets for the sparse estimator")
    if delay_grid is None:
        delay_grid = np.arange(0.0, 300e-9, 10e-9)
    feats = estimate_features_sparse(
        csi_series, sched, cfg, delay_grid=delay_grid, doppler_grid=doppler_grid,
        **solver_kwargs,
    )
    _, doppler, _ = feats.dominant()
    return abs(doppler) * cfg.wavelength / 2.0


# ---------------------------------------------------------------------------
# localization


def localize_single(est, device_pos=(0.0, 0.0), heading_deg=0.0):
    """Place the target from one device's range and arrival angle."""
    if est.range_m is None or est.aoa_deg is None:
        raise ValueError("localization needs both a range and an angle")
    ang = np.radians(heading_deg + est.aoa_deg)
    device_pos = np.asarray(device_pos, dtype=np.float64)
    return device_pos + est.range_m * np.array([np.cos(ang), np.sin(ang)])


__all__ = [
    "TxSchedule",
    "FeatureVector",
    "SensingEstimate",
    "LassoResult",
    "admm_lasso",
    "dictionary_matrices",
    "estimate_features_sparse",
    "matched_filter_peak",
    "ifft_range_profile",
    "range_ifft",
    "MusicResult",
    "range_music",
    "aoa_music",
    "velocity_fft",
    "snap_to_uniform",
    "velocity_sparse",
    "localize_single",
]
