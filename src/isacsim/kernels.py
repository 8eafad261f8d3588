"""Adaptive-FIR kernels of the self-interference canceller.

``cancel`` calls these through the module (``kernels.nlms_fir``,
``kernels.fir_apply``), so a profiler can wrap them in one place.

``nlms_fir`` is exact NLMS against a known reference (Haykin, *Adaptive
Filter Theory*): the canceller always adapts to its own transmit burst, so
everything but the desired signal is fixed in advance. Sample i's update,
``w -> (I - g_i conj(x_i) x_i^T) w + g_i conj(x_i) d_i`` with step
``g_i = mu/(eps+|x_i|^2)``, has matrices that depend on the reference
alone. So a pass is ``w -> P w + K d``, and ``k`` passes give
``w = P^k w_0 + M d`` with ``M = (I + P + ... + P^(k-1)) K``: ``P^k`` and
M are built once per reference, tap count, ``mu`` and ``k``, and every fit
against them is two products. The taps equal the per-sample recursion's
up to rounding.
"""

import functools

import numpy as np

# no compiled kernel path exists; kept for provenance stamps that report it
HAS_NUMBA = False

# keeps NLMS's step finite on an all-zero regression vector
_EPS = 1e-12


@functools.lru_cache(maxsize=8)
def _sweep_of(ref, n_taps, mu, n_passes):
    """``(P^k, M)`` of the complex reference bytes ``ref``, read only.

    One walk from the last sample back: ``later``, the product of the later
    samples' matrices, carries each sample's step into its column of K
    (stored as rows) and ends as P. A few references are kept.
    """
    ref = np.frombuffer(ref, dtype=np.complex128)
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), ref])
    x = np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1]
    g = mu / (_EPS + (x.real ** 2 + x.imag ** 2).sum(1))
    steps = np.conj(x) * g[:, None]
    k = np.empty_like(steps)
    later = np.eye(n_taps, dtype=np.complex128)
    for i in range(len(ref) - 1, -1, -1):
        k_i = k[i] = later @ steps[i]
        later -= k_i[:, None] * x[i]
    # later is now P; sum its first n_passes powers
    power = np.eye(n_taps, dtype=np.complex128)
    total = np.zeros_like(power)
    for _ in range(n_passes):
        total += power
        power = later @ power
    m = total @ k.T
    power.flags.writeable = m.flags.writeable = False
    return power, m


def nlms_fir(ref, desired, n_taps, mu=0.1, n_passes=1, taps_init=None):
    """Adapt a causal complex FIR so that (taps * ref)[i] tracks desired[i].

    Returns the tap vector after ``n_passes`` sweeps of normalized LMS with
    step ``mu``. The regression vector at step i is [ref[i], ..., ref[i-T+1]]
    (zero before the start of each sweep). The sweeps are one affine map of
    the starting taps and ``desired``, ``P^k taps_init + M desired``, whose
    operators are built on the first call for a reference (with its
    ``n_taps``, ``mu`` and ``n_passes``) and reused by every later one (see
    the module docstring). The result is that of the per-sample recursion,
    differing only by rounding.
    """
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    desired = np.ascontiguousarray(desired, dtype=np.complex128)
    if len(ref) != len(desired):
        raise ValueError("ref and desired must have equal length")
    if n_taps < 1:
        raise ValueError("n_taps must be >= 1")
    if taps_init is None:
        w = np.zeros(n_taps, dtype=np.complex128)
    else:
        w = np.ascontiguousarray(taps_init, dtype=np.complex128).copy()
        if len(w) != n_taps:
            raise ValueError("taps_init length mismatch")
    n, n_passes = len(ref), int(n_passes)
    if n == 0 or n_passes <= 0:
        return w
    power, m = _sweep_of(ref.tobytes(), int(n_taps), float(mu), n_passes)
    return power @ w + m @ desired


def fir_apply(ref, taps):
    """Causal FIR filtering of ref by taps (linear convolution, truncated)."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    return np.convolve(ref, taps)[: len(ref)]


__all__ = ["HAS_NUMBA", "nlms_fir", "fir_apply"]
