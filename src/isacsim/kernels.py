"""Hot numeric kernels, JIT-compiled when numba is available.

Each kernel has two interchangeable implementations: a numba ``@njit`` version
and a pure-numpy fallback. The active path is chosen once at import time; set
``ISACSIM_DISABLE_NUMBA=1`` in the environment (or uninstall numba) to force
the numpy path.
"""

import os

import numpy as np

_DISABLED = os.environ.get("ISACSIM_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

try:
    if _DISABLED:
        raise ImportError("numba disabled via ISACSIM_DISABLE_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False


# ---------------------------------------------------------------------------
# Nonuniform DFT: c(f) = sum_m values[m] * exp(-2j*pi*f*times[m])
# Direct O(M*N) summation is the reference semantics.
# ---------------------------------------------------------------------------

def _ndft_direct_numpy(times, values, freqs):
    out = np.empty(len(freqs), dtype=np.complex128)
    # chunk the outer product so the temporary stays bounded
    chunk = max(1, 4_000_000 // max(len(times), 1))
    for i in range(0, len(freqs), chunk):
        block = freqs[i : i + chunk, None] * times[None, :]
        out[i : i + chunk] = np.exp(-2j * np.pi * block) @ values
    return out


def _nlms_fir_python(ref, desired, taps, mu, eps, n_passes):
    """Normalized LMS; estimate d[i] ~= sum_j w[j]*ref[i-j]."""
    w = taps.copy()
    n_taps = len(w)
    n = len(desired)
    x = np.zeros(n_taps, dtype=np.complex128)
    for _ in range(n_passes):
        x[:] = 0.0
        for i in range(n):
            x[1:] = x[:-1]
            x[0] = ref[i]
            err = desired[i] - np.dot(w, x)
            norm = eps + np.real(np.vdot(x, x))
            w = w + (mu * err / norm) * np.conj(x)
    return w


def _fir_apply_numpy(ref, taps):
    return np.convolve(ref, taps)[: len(ref)]


if HAS_NUMBA:

    @njit(cache=True)
    def _ndft_direct_numba(times, values, freqs):  # pragma: no cover - jitted
        out = np.empty(len(freqs), dtype=np.complex128)
        for fi in range(len(freqs)):
            acc = 0.0 + 0.0j
            w = -2.0 * np.pi * freqs[fi]
            for m in range(len(times)):
                acc += values[m] * np.exp(1j * w * times[m])
            out[fi] = acc
        return out

    @njit(cache=True)
    def _nlms_fir_numba(ref, desired, taps, mu, eps, n_passes):  # pragma: no cover
        w = taps.copy()
        n_taps = len(w)
        n = len(desired)
        x = np.zeros(n_taps, dtype=np.complex128)
        for _ in range(n_passes):
            for j in range(n_taps):
                x[j] = 0.0
            for i in range(n):
                for j in range(n_taps - 1, 0, -1):
                    x[j] = x[j - 1]
                x[0] = ref[i]
                est = 0.0 + 0.0j
                norm = eps
                for j in range(n_taps):
                    est += w[j] * x[j]
                    norm += (x[j].real * x[j].real) + (x[j].imag * x[j].imag)
                err = desired[i] - est
                g = mu * err / norm
                for j in range(n_taps):
                    w[j] = w[j] + g * np.conj(x[j])
        return w

    @njit(cache=True)
    def _fir_apply_numba(ref, taps):  # pragma: no cover - jitted
        n = len(ref)
        n_taps = len(taps)
        out = np.zeros(n, dtype=np.complex128)
        for i in range(n):
            upper = min(i + 1, n_taps)
            acc = 0.0 + 0.0j
            for j in range(upper):
                acc += taps[j] * ref[i - j]
            out[i] = acc
        return out

    _ndft_impl = _ndft_direct_numba
    _nlms_impl = _nlms_fir_numba
    _fir_impl = _fir_apply_numba
else:
    _ndft_impl = _ndft_direct_numpy
    _nlms_impl = _nlms_fir_python
    _fir_impl = _fir_apply_numpy


def ndft_direct(times, values, freqs):
    """Direct nonuniform DFT sum. Inputs are coerced to contiguous arrays."""
    times = np.ascontiguousarray(times, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.complex128)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    return _ndft_impl(times, values, freqs)


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
        taps = np.zeros(n_taps, dtype=np.complex128)
    else:
        taps = np.ascontiguousarray(taps_init, dtype=np.complex128).copy()
        if len(taps) != n_taps:
            raise ValueError("taps_init length mismatch")
    return _nlms_impl(ref, desired, taps, float(mu), float(eps), int(n_passes))


def fir_apply(ref, taps):
    """Causal FIR filtering of ref by taps (linear convolution, truncated)."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    return _fir_impl(ref, taps)


__all__ = ["HAS_NUMBA", "ndft_direct", "nlms_fir", "fir_apply"]
