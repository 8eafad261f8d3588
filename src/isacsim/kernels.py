"""Adaptive-FIR kernels of the self-interference canceller.

``cancel`` calls these through the module (``kernels.nlms_fir``,
``kernels.fir_apply``), so a profiler can wrap them in one place.

``nlms_fir`` is exact NLMS against a known reference (Haykin, *Adaptive
Filter Theory*): the canceller always adapts to its own transmit burst, so
everything but the desired signal is fixed in advance. NLMS's step sizes
``g_i = mu/(eps+|x_i|^2)`` depend only on the reference, so within a block
of B samples the a-priori errors satisfy ``(I + L) e = d - X w`` with
``L[i, j] = g_j x_i^T conj(x_j)`` for j < i, independent of the taps ``w``
(the block form of LMS of Benesty and Duhamel, 1992). Block b is therefore
the affine map ``w -> P_b w + R_b d_b`` with ``R_b = X_b^H G_b (I + L_b)^-1``
and ``P_b = I - R_b X_b``. A pass is their ordered product,
``w -> P w + K d`` with ``P = P_B ... P_1`` and K the blocks' ``R_b``, each
carried through the later blocks' ``P``, side by side. So ``k`` passes give
``w = P^k w_0 + M d`` with ``M = (I + P + ... + P^(k-1)) K``, where ``P^k``
and M depend on the reference, the tap count, ``mu``, ``eps`` and ``k``
alone: they are built once per such reference and every fit against it is
two products. The taps equal the per-sample recursion's up to rounding.
"""

import functools

import numpy as np

# no compiled kernel path exists; kept for provenance stamps that report it
HAS_NUMBA = False

# samples per block map, and block maps built per batched solve (bounds the
# build's batched temporaries at a few hundred kB for 16 taps)
_BLOCK = 16
_BLOCKS_PER_BATCH = 8


def _block_maps(x, g):
    """Each block's (R_b, P_b) from blocks x (k, B, T) and steps g (k, B)."""
    xh_g = np.conj(x).transpose(0, 2, 1) * g[:, None, :]
    lower = np.eye(x.shape[1]) + np.tril(x @ xh_g, -1)
    # R_b = X_b^H G_b (I + L_b)^-1, solved in transposed form
    r = np.linalg.solve(lower.transpose(0, 2, 1),
                        xh_g.transpose(0, 2, 1)).transpose(0, 2, 1)
    return r, np.eye(x.shape[2]) - r @ x


@functools.lru_cache(maxsize=8)
def _sweep_of(ref, n_taps, mu, eps, n_passes):
    """``(P^k, M)`` of the complex reference bytes ``ref``, read only.

    Built batch by batch from the last block back, so the suffix product
    that carries each block's ``R_b`` through the later blocks is one
    running matrix; a few references are kept.
    """
    ref = np.frombuffer(ref, dtype=np.complex128)
    n = len(ref)
    # pad to whole blocks; padded samples get step 0, so they change nothing
    n_blocks = -(-n // _BLOCK)
    pad = n_blocks * _BLOCK - n
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), ref,
                             np.zeros(pad, dtype=np.complex128)])
    x = np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1]
    g = np.zeros(n_blocks * _BLOCK)
    g[:n] = mu / (eps + (x[:n].real ** 2 + x[:n].imag ** 2).sum(1))

    # K: each block's R_b carried through the later blocks' P_b
    carried = np.empty((n_taps, n_blocks * _BLOCK), dtype=np.complex128)
    suffix = np.eye(n_taps, dtype=np.complex128)
    for stop in range(n_blocks, 0, -_BLOCKS_PER_BATCH):
        rows = slice(max(stop - _BLOCKS_PER_BATCH, 0) * _BLOCK, stop * _BLOCK)
        r, p = _block_maps(x[rows].reshape(-1, _BLOCK, n_taps),
                           g[rows].reshape(-1, _BLOCK))
        suffixes = np.empty_like(p)
        for j in range(len(p) - 1, -1, -1):
            suffixes[j] = suffix
            suffix = suffix @ p[j]
        carried[:, rows] = (suffixes @ r).transpose(1, 0, 2).reshape(n_taps, -1)
    # suffix is now P; sum its first n_passes powers
    power = np.eye(n_taps, dtype=np.complex128)
    total = np.zeros_like(power)
    for _ in range(n_passes):
        total += power
        power = suffix @ power
    m = total @ carried[:, :n]
    power.flags.writeable = m.flags.writeable = False
    return power, m


def nlms_fir(ref, desired, n_taps, mu=0.1, eps=1e-12, n_passes=1, taps_init=None):
    """Adapt a causal complex FIR so that (taps * ref)[i] tracks desired[i].

    Returns the tap vector after ``n_passes`` sweeps of normalized LMS with
    step ``mu``. The regression vector at step i is [ref[i], ..., ref[i-T+1]]
    (zero before the start of each sweep). The sweeps are one affine map of
    the starting taps and ``desired``, ``P^k taps_init + M desired``, whose
    operators are built on the first call for a reference (with its
    ``n_taps``, ``mu``, ``eps`` and ``n_passes``) and reused by every later
    one (see the module docstring). The result is that of the per-sample
    recursion, differing only by rounding.
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
    power, m = _sweep_of(ref.tobytes(), int(n_taps), float(mu), float(eps),
                         n_passes)
    return power @ w + m @ desired


def fir_apply(ref, taps):
    """Causal FIR filtering of ref by taps (linear convolution, truncated)."""
    ref = np.ascontiguousarray(ref, dtype=np.complex128)
    taps = np.ascontiguousarray(taps, dtype=np.complex128)
    return np.convolve(ref, taps)[: len(ref)]


__all__ = ["HAS_NUMBA", "nlms_fir", "fir_apply"]
