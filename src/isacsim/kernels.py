"""Adaptive-FIR kernels of the self-interference canceller.

``cancel`` calls these through the module (``kernels.nlms_fir``,
``kernels.fir_apply``), so a profiler can wrap them in one place.
"""

import numpy as np

# no compiled kernel path exists; kept for provenance stamps that report it
HAS_NUMBA = False


def nlms_fir(ref, desired, n_taps, mu=0.1, eps=1e-12, n_passes=1, taps_init=None):
    """Adapt a causal complex FIR so that (taps * ref)[i] tracks desired[i].

    Returns the tap vector after ``n_passes`` sweeps of normalized LMS with
    step ``mu``. The regression vector at step i is [ref[i], ..., ref[i-T+1]].
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
    mu, eps = float(mu), float(eps)
    x = np.zeros(n_taps, dtype=np.complex128)
    for _ in range(int(n_passes)):
        x[:] = 0.0
        for i in range(len(desired)):
            x[1:] = x[:-1]
            x[0] = ref[i]
            err = desired[i] - np.dot(w, x)
            norm = eps + np.real(np.vdot(x, x))
            w = w + (mu * err / norm) * np.conj(x)
    return w


def fir_apply(ref, taps):
    """Causal FIR filtering of ref by taps (linear convolution, truncated)."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    return np.convolve(ref, taps)[: len(ref)]


__all__ = ["HAS_NUMBA", "nlms_fir", "fir_apply"]
