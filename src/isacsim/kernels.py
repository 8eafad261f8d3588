"""Adaptive-FIR kernels of the self-interference canceller.

``cancel`` calls these through the module (``kernels.nlms_fir``,
``kernels.fir_apply``), so a profiler can wrap them in one place.

``nlms_fir`` is exact block NLMS (the block form of LMS of Benesty and
Duhamel, 1992). NLMS's step sizes ``g_i = mu/(eps+|x_i|^2)`` depend only on
the reference, so within a block of B samples the a-priori errors satisfy
``(I + L) e = d - X w`` with ``L[i, j] = g_j x_i^T conj(x_j)`` for j < i,
independent of the taps ``w``. A block is therefore the affine map
``w -> P w + q`` with ``P = I - X^H G Z_X`` and ``q = X^H G Z_d``, where
``(I + L) [Z_X | Z_d] = [X | d]``; one pass is the ordered product of its
block maps, and every further pass is one more application of that product.
The taps equal the per-sample recursion's up to rounding.
"""

import numpy as np

# no compiled kernel path exists; kept for provenance stamps that report it
HAS_NUMBA = False

# samples per block map, and block maps built per batched solve (bounds the
# batched temporaries at a few hundred kB for 16 taps)
_BLOCK = 16
_BLOCKS_PER_BATCH = 8


def _block_maps(x, d, g):
    """Augmented affine maps [[P, q], [0, 1]] of blocks x (k, B, T), d, g (k, B)."""
    k, b, t = x.shape
    xh_g = np.conj(x).transpose(0, 2, 1) * g[:, None, :]
    lower = np.eye(b) + np.tril(x @ xh_g, -1)
    y = xh_g @ np.linalg.solve(lower, np.concatenate([x, d[..., None]], axis=2))
    maps = np.zeros((k, t + 1, t + 1), dtype=np.complex128)
    maps[:, :t, :t] = np.eye(t) - y[..., :t]
    maps[:, :t, t] = y[..., t]
    maps[:, t, t] = 1.0
    return maps


def nlms_fir(ref, desired, n_taps, mu=0.1, eps=1e-12, n_passes=1, taps_init=None):
    """Adapt a causal complex FIR so that (taps * ref)[i] tracks desired[i].

    Returns the tap vector after ``n_passes`` sweeps of normalized LMS with
    step ``mu``. The regression vector at step i is [ref[i], ..., ref[i-T+1]]
    (zero before the start of each sweep). The sweep is computed as the
    ordered product of exact block maps (see the module docstring), so the
    result is that of the per-sample recursion, differing only by rounding.
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

    # pad to whole blocks; padded samples get step 0, so they change nothing
    n_blocks = -(-n // _BLOCK)
    pad = n_blocks * _BLOCK - n
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), ref,
                             np.zeros(pad, dtype=np.complex128)])
    x = np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1]
    g = np.zeros(n_blocks * _BLOCK)
    g[:n] = float(mu) / (float(eps) + (x[:n].real ** 2 + x[:n].imag ** 2).sum(1))
    d = np.concatenate([desired, np.zeros(pad, dtype=np.complex128)])
    x = x.reshape(n_blocks, _BLOCK, n_taps)
    d = d.reshape(n_blocks, _BLOCK)
    g = g.reshape(n_blocks, _BLOCK)

    sweep = np.eye(n_taps + 1, dtype=np.complex128)
    for start in range(0, n_blocks, _BLOCKS_PER_BATCH):
        batch = slice(start, start + _BLOCKS_PER_BATCH)
        for block_map in _block_maps(x[batch], d[batch], g[batch]):
            sweep = block_map @ sweep
    p, q = sweep[:n_taps, :n_taps], sweep[:n_taps, n_taps]
    for _ in range(n_passes):
        w = p @ w + q
    return w


def fir_apply(ref, taps):
    """Causal FIR filtering of ref by taps (linear convolution, truncated)."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    return np.convolve(ref, taps)[: len(ref)]


__all__ = ["HAS_NUMBA", "nlms_fir", "fir_apply"]
