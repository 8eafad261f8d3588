"""Channel-feature estimation from packet-time CSI.

The centerpiece is a sparse delay/Doppler estimator that works directly on
irregularly spaced packets: it builds the nonuniform dictionary whose atoms
are ``delay_phase(tau_i, f_c+f_k) * delay_phase(T_l, nu_j)``, on the
``sigcore`` map that synthesizes CSI, and solves an l1-penalized least-squares
problem with ADMM. Classical baselines (inverse transform across subcarriers,
subspace pseudospectra for delay and angle, packet-rate FFT Doppler) are here
because their failure modes under irregular sampling are exactly what the
sparse path fixes.

Every estimator takes CSI in one shape, the (packets, antennas,
subcarriers) array that ``channel.synthesize_csi_series`` returns, and
raises ValueError on any other, on an empty axis and on a non-finite
value. All but the arrival-angle estimator read antenna 0, the array's
phase reference.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .channel import steering_vector
from .ofdm import SPEED_OF_LIGHT
from .sigcore import delay_phase


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
        # C order, so argmax reads it without a copy
        mags = np.abs(self.coefficients, order="C")
        if min_doppler_hz is not None:
            moving = np.abs(self.doppler_grid) >= min_doppler_hz
            if not np.any(moving):
                raise ValueError("no atoms beyond the Doppler cutoff")
            mags[:, ~moving] = 0.0
        i, j = np.unravel_index(np.argmax(mags), mags.shape)
        return (
            float(self.delay_grid[i]),
            float(self.doppler_grid[j]),
            complex(self.coefficients[i, j]),
        )


def _csi_3d(csi):
    """``csi`` as a finite complex (packets, antennas, subcarriers) array."""
    arr = np.asarray(csi, dtype=np.complex128)
    if arr.ndim != 3 or arr.size == 0:
        raise ValueError("CSI must be a (packets, antennas, subcarriers) "
                         f"array with no empty axis, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("CSI must be finite")
    return arr


# ---------------------------------------------------------------------------
# ADMM lasso


LassoResult = namedtuple("LassoResult", "coefficients converged iterations "
                         "objectives primal_residual dual_residual")


def _soft_threshold(x, kappa, scale, out):
    # scale = 1 - kappa/max(|x|, kappa): exactly 0 where |x| <= kappa
    scale = np.abs(x, out=scale)
    np.maximum(scale, kappa, out=scale)
    np.divide(kappa, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    return np.multiply(x, scale, out=out)


def _apply(a, b, m, out=None):
    """``a @ m @ b^T``, associated in whichever order needs fewer products.

    Applying ``b`` first costs ``q*s*(p + r)`` multiply-adds for a (p, q)
    ``a``, (q, r) ``m`` and (s, r) ``b``; applying ``a`` first costs
    ``p*r*(q + s)``. A tie applies ``b`` first; ``out`` takes the result.
    """
    (p, q), (s, r) = a.shape, b.shape
    if p * r * (q + s) < q * s * (p + r):
        return np.matmul(a @ m, b.T, out=out)
    return np.matmul(a, m @ b.T, out=out)


# eigenpairs of a row Gram at or below this fraction of its largest
# eigenvalue are dropped: the Gram resolves nothing finer
_RANK_EPS = np.finfo(float).eps

# one dictionary matrix M rotated onto its kept rows: W = U^H M, W^H and
# e = diag(W W^H), with the columns of U orthonormal
_Half = namedtuple("_Half", "w wh uh e")


def _rotate(m):
    """``m`` rotated onto its kept rows, as a ``_Half``.

    One ``eigh`` of the row Gram, M M^H = U diag(e) U^H, keeps the
    eigenpairs with e > eps * max(e), eps the float64 machine epsilon, so
    a tall matrix drops its null rows and a band-limited one keeps about
    its numerical rank. Then W = U^H M has orthogonal rows of squared
    norms e, and M = U W up to the dropped directions, whose singular
    values are at most about sqrt(eps) times the largest; W^H is formed
    once, here.
    """
    e, u = np.linalg.eigh(m @ m.conj().T)
    keep = e > _RANK_EPS * e[-1]
    uh = u[:, keep].conj().T
    w = uh @ m
    return _Half(w, w.conj().T, uh, e[keep])


# a solve's atom-size buffers: complex Z, Z_old, U and X, real magnitudes
_Workspace = namedtuple("_Workspace", "z z_old u x mag")


@functools.lru_cache(maxsize=4)
def _workspace(shape):
    """The ``_Workspace`` of every solve on a ``shape`` atom grid.

    Built once per (n_dopplers, n_delays) shape, a few shapes kept, and
    overwritten by every solve on that shape. So solves are not reentrant
    across threads: run concurrent ones in separate processes.
    """
    return _Workspace(*(np.empty(shape, dtype=np.complex128)
                        for _ in range(4)), np.empty(shape))


def admm_lasso(g, d, y, lam, max_iters=200, tol=1e-6):
    """Solve min 0.5*||G X D^T - Y||_F^2 + lam*||X||_1 over the matrix X.

    ``g`` and ``d`` are raw matrices, rotated here by ``_rotate``, or
    halves it already cut to their kept rows, W^H included, so a solve
    conjugates neither. With W_G = U_G^H G and W_D = U_D^H D,
    G X D^T = U_G (W_G X W_D^T) U_D^T, so the solve runs in the rotated
    space, with Y~ = U_G^H Y conj(U_D) and W(X) = W_G X W_D^T, whose row
    (i, j) has squared norm e[i, j], e = outer(e_G, e_D).
    With Z the split copy of X, U the scaled dual and V = Z - U, the exact
    x-update (A^H A + rho I)^{-1} (A^H Y + rho V) of the operator
    A(X) = G X D^T is, by the push-through identity,
    ``X = V + W_G^H Q conj(W_D)`` with ``Q = (Y~ - W(V)) / (e + rho)``
    elementwise, and ``W(X) = W(V) + e * Q`` needs no product. Keeping
    W(Z) and W(U) beside Z and U, an iteration costs two pairs of matrix
    products, the adjoint for X and W(Z). The part of Y outside the kept
    rows, 0.5*(||Y||^2 - ||Y~||^2), is a constant of the residual, so the
    objective is ``0.5*||W(Z) - Y~||^2`` plus that constant plus the
    penalty. A^H Y is never formed.
    rho is ||A||^2 = max(e), which damps the splitting enough that the
    objective decreases essentially monotonically instead of ringing
    toward the optimum. The returned LassoResult's ``converged`` is False
    when the stopping criteria were not met within ``max_iters`` — callers
    must check it rather than trust a silently truncated solve — and it
    carries the final primal and dual residual norms. The solve stops when
    the primal residual is small and either the dual residual is small too
    or the objective has been stationary (relative change below ``tol``)
    for five consecutive iterations; the latter matters for highly
    coherent dictionaries, where near-identical neighboring atoms trade
    coefficient mass at a vanishing rate long after the objective settled.
    Every atom-size step runs in place in the shape's ``_workspace``, which
    outlives the call and is not reentrant across threads; the returned
    coefficients are a copy of Z, the one atom-size array a solve allocates.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    y = np.asarray(y, dtype=np.complex128)
    g, d = (m if isinstance(m, _Half) else _rotate(m) for m in (g, d))
    if y.shape != (g.uh.shape[1], d.uh.shape[1]):
        raise ValueError("operator output shape does not match y")
    e = np.multiply.outer(g.e, d.e)
    rho = max(float(e.max(initial=0.0)), 1e-8)
    gain = 1.0 / (e + rho)
    y_rot = _apply(g.uh, d.uh, y)
    dropped = 0.5 * (np.vdot(y, y).real - np.vdot(y_rot, y_rot).real)

    z, z_old, u, x, mag = _workspace((g.w.shape[1], d.w.shape[1]))
    z.fill(0.0)
    u.fill(0.0)
    wz = wu = np.zeros_like(y_rot)
    objectives = []
    converged = False
    iterations = 0
    stalled = 0
    r_norm = s_norm = np.inf
    sqrt_n = np.sqrt(z.size)
    for it in range(max_iters):
        iterations = it + 1
        wv = wz - wu
        w_step = (y_rot - wv) * gain
        # Z_old is free until the swap, and U's old value is needed only
        # for V = X + U, so V takes U's buffer: U = (U + X) - Z bit for bit
        np.subtract(z, u, out=x)
        x += _apply(g.wh, d.wh, w_step, out=z_old)
        wx = wv + e * w_step
        u += x
        z, z_old = z_old, z
        _soft_threshold(u, lam / rho, mag, out=z)
        u -= z
        wz = _apply(g.w, d.w, z)
        wu = wu + wx - wz

        resid = wz - y_rot
        objectives.append(0.5 * np.vdot(resid, resid).real + dropped
                          + lam * np.sum(np.abs(z, out=mag)))
        if len(objectives) >= 2 and abs(objectives[-1] - objectives[-2]) <= (
            tol * max(1.0, abs(objectives[-2]))
        ):
            stalled += 1
        else:
            stalled = 0

        eps_pri = sqrt_n * tol + tol * max(np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = sqrt_n * tol + tol * rho * np.linalg.norm(u)
        # X and Z_old are not read again, so they take the differences
        r_norm = np.linalg.norm(np.subtract(x, z, out=x))
        s_norm = rho * np.linalg.norm(np.subtract(z, z_old, out=z_old))
        if r_norm <= eps_pri and (s_norm <= eps_dual or stalled >= 5):
            converged = True
            break
    return LassoResult(z.copy(), converged, iterations, np.asarray(objectives),
                       float(r_norm), float(s_norm))


# ---------------------------------------------------------------------------
# sparse delay/Doppler estimation


@functools.lru_cache(maxsize=8)
def _delay_half_of(freqs, delays):
    # transposed from synthesis's (delays, freqs): an atom is a path's row
    half = _rotate(delay_phase(np.frombuffer(delays), np.frombuffer(freqs)).T)
    for arr in half:
        arr.flags.writeable = False
    return half


def _delay_half(cfg, delay_grid):
    """The delay matrix D of ``cfg`` and ``delay_grid``, rotated and cut.

    D depends only on the absolute subcarrier frequencies and the delay
    grid, so its ``_Half`` (W^H too) is built once per pair of them and
    shared, read only, by every solve on that pair; a few pairs are kept.
    """
    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    return _delay_half_of(freqs.tobytes(),
                          np.asarray(delay_grid, dtype=np.float64).tobytes())


def estimate_features_sparse(csi_series, sched, cfg, delay_grid, doppler_grid,
                             max_iters=80, tol=1e-3):
    """Sparse delay/Doppler atoms straight from irregular packet times.

    Antenna 0's (packets x subcarriers) series H is modeled as
    ``G Gamma^T D^T``, with the Doppler part G evaluated at the actual
    transmit instants, so nothing assumes uniform sampling. ``admm_lasso``
    solves for the (Doppler x delay) matrix Gamma^T on the two halves,
    each rotated by one small ``eigh`` onto orthogonal rows and cut to its
    numerical rank: the delay half once per configuration and delay grid
    (``_delay_half``), the Doppler half once per call. An iteration is an
    exact x-update with no inner iterative solve and costs two products
    the size of one dictionary application. The l1 weight is 0.1 times
    the largest correlation with the data, W_G^H Y~ conj(W_D) on the
    rotated data Y~, the one place an atom-size correlation is formed. It
    and its magnitude go into the shape's ``_workspace``, which the solve
    then reuses, so neither call is reentrant across threads. The default
    tolerance is loose because peak positions stabilize long before the
    coefficients between near-identical neighboring atoms do; tighten it
    when the coefficient values themselves matter. The result carries the
    solve's iteration count and final primal and dual residuals.
    """
    h = _csi_3d(csi_series)[:, 0, :]
    if h.shape[0] != len(sched):
        raise ValueError("need one CSI row per scheduled packet")
    delay_grid = np.asarray(delay_grid)
    doppler_grid = np.asarray(doppler_grid)
    delay = _delay_half(cfg, delay_grid)
    doppler = _rotate(delay_phase(sched.times, doppler_grid) / np.sqrt(h.size))
    y_rot = _apply(doppler.uh, delay.uh, h)
    ws = _workspace((doppler.w.shape[1], delay.w.shape[1]))
    corr = _apply(doppler.wh, delay.wh, y_rot, out=ws.x)
    lam = 0.1 * float(np.max(np.abs(corr, out=ws.mag)))
    if lam == 0.0:
        coef = np.zeros((delay_grid.size, doppler_grid.size),
                        dtype=np.complex128)
        return FeatureVector(delay_grid, doppler_grid, coef, converged=True)
    result = admm_lasso(doppler, delay, h, lam, max_iters=max_iters, tol=tol)
    return FeatureVector(delay_grid, doppler_grid, result.coefficients.T,
                         result.converged, result.iterations,
                         result.primal_residual, result.dual_residual)


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


@functools.lru_cache(maxsize=8)
def _delay_steering(spacing, subarray_len):
    """``range_music``'s 1 ns delay grid and its steering matrix.

    Both depend only on the subcarrier spacing and the subarray length, so
    they are built once per pair and shared, read only; a few are kept.
    """
    grid = np.arange(0.0, 500e-9, 1e-9)
    steer = delay_phase(grid, spacing * np.arange(subarray_len)).T
    grid.flags.writeable = steer.flags.writeable = False
    return grid, steer


def range_music(csi, n_paths, cfg, subarray_len=None):
    """Subspace delay pseudospectrum with frequency smoothing.

    CSI bins are grouped into contiguous equally spaced runs, and sliding
    subarrays of ``subarray_len`` bins inside each run (across all packets)
    supply the covariance snapshots; smoothing over start offsets is what
    decorrelates same-scene static paths. ``subarray_len`` defaults to 16
    bins, or to the longest run when narrow FFTs leave none that long.
    """
    if n_paths < 1:
        raise ValueError("need at least one path to look for")
    arr = _csi_3d(csi)[:, 0, :]
    signed = cfg.signed_index()
    order = np.argsort(signed)
    runs = _contiguous_runs(signed[order])
    arr = arr[:, order]
    if subarray_len is None:
        subarray_len = min(16, max(run.size for run in runs))
    if subarray_len <= n_paths:
        raise ValueError("subarray too short for the requested model order")

    snapshots = []
    for run in runs:
        if run.size < subarray_len:
            continue
        block = arr[:, run]
        for start in range(run.size - subarray_len + 1):
            snapshots.append(block[:, start : start + subarray_len])
    if not snapshots:
        raise ValueError("no contiguous bin run is as long as the subarray")
    stack = np.concatenate(snapshots, axis=0)  # (n_snapshots, subarray_len)
    grid, steer = _delay_steering(cfg.subcarrier_spacing, subarray_len)
    delays, degraded, spectrum = _music(stack, n_paths, grid, steer)
    return MusicResult(SPEED_OF_LIGHT * delays / 2.0, degraded, grid, spectrum)


def aoa_music(csi, n_sources):
    """Subspace arrival-angle pseudospectrum of a half-wavelength linear array."""
    arr = _csi_3d(csi)
    n_ant = arr.shape[1]
    if not 1 <= n_sources < n_ant:
        raise ValueError("source count must be below the antenna count")
    grid = np.arange(-90.0, 90.0 + 1e-9, 0.5)
    snapshots = np.moveaxis(arr, 1, 2).reshape(-1, n_ant)
    steer = steering_vector(grid, n_ant).T
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


def velocity_sparse(csi_series, sched, cfg, doppler_grid, **solver_kwargs):
    """Velocity magnitude from the dominant sparse Doppler atom."""
    if len(sched) < 8:
        raise ValueError("need at least 8 packets for the sparse estimator")
    feats = estimate_features_sparse(
        csi_series, sched, cfg, delay_grid=np.arange(0.0, 300e-9, 10e-9),
        doppler_grid=doppler_grid, **solver_kwargs,
    )
    _, doppler, _ = feats.dominant()
    return abs(doppler) * cfg.wavelength / 2.0


__all__ = [
    "TxSchedule",
    "FeatureVector",
    "LassoResult",
    "admm_lasso",
    "estimate_features_sparse",
    "ifft_range_profile",
    "range_ifft",
    "MusicResult",
    "range_music",
    "aoa_music",
    "velocity_fft",
    "snap_to_uniform",
    "velocity_sparse",
]
