"""Multi-device fusion: sensing messages and maximum-likelihood grids.

Each device reduces its CSI processing to a compact sensing message — where
the device sits, when it looked, and the (range, angle) it measured with a
confidence weight. ``SensingMessage`` is the one record of a device's view
and ``fuse_ml`` the one localizer: it fuses messages from any number of
devices on a common ground grid by summing per-observation Gaussian
log-likelihoods, then picking the best cell with sub-cell quadratic
refinement. A single device's fix is ``fuse_ml([msg])``; several devices
shrink the error because their range/angle uncertainty ellipses intersect.
"""

from dataclasses import dataclass

import numpy as np

from .sigcore import wrap_deg


@dataclass
class SensingMessage:
    """One device's observation at one instant.

    Pose fields locate the device on the ground plane; ``aoa_deg`` may be
    NaN for a range-only observation (single-antenna device), but not
    infinite.
    """

    device_id: str
    t_s: float
    x_m: float
    y_m: float
    heading_deg: float
    range_m: float
    aoa_deg: float = float("nan")
    confidence: float = 1.0

    def __post_init__(self):
        for name in ("t_s", "x_m", "y_m", "heading_deg", "range_m", "confidence"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if np.isinf(self.aoa_deg):
            raise ValueError("aoa_deg must be finite, or NaN for range-only")
        if self.range_m < 0:
            raise ValueError("range_m must be non-negative")
        if self.confidence <= 0:
            raise ValueError("confidence must be positive")


# ---------------------------------------------------------------------------
# maximum-likelihood grid fusion


@dataclass
class FusionResult:
    """The fused fix and the summed log-likelihood surface it was taken from,
    ``loglik[iy, ix]`` at cell centre ``(xs[ix], ys[iy])``."""

    x_m: float
    y_m: float
    n_messages: int
    xs: np.ndarray
    ys: np.ndarray
    loglik: np.ndarray


def message_loglik(message, x, y, sigma_range=0.5, sigma_aoa_deg=5.0):
    """Gaussian log-likelihood (up to constants) of one observation at (x, y)."""
    for name, sigma in (("sigma_range", sigma_range),
                        ("sigma_aoa_deg", sigma_aoa_deg)):
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {sigma!r}")
    dx = np.asarray(x, dtype=np.float64) - message.x_m
    dy = np.asarray(y, dtype=np.float64) - message.y_m
    r = np.hypot(dx, dy)
    ll = -0.5 * ((r - message.range_m) / sigma_range) ** 2
    if np.isfinite(message.aoa_deg):
        aoa = np.degrees(np.arctan2(dy, dx)) - message.heading_deg
        diff = wrap_deg(aoa - message.aoa_deg)
        ll = ll - 0.5 * (diff / sigma_aoa_deg) ** 2
    return message.confidence * ll


def _refine_axis(values, idx, step):
    """Sub-cell peak offset from a 3-point parabola; clamped to half a cell."""
    if idx <= 0 or idx >= len(values) - 1:
        return 0.0
    left, mid, right = values[idx - 1], values[idx], values[idx + 1]
    denom = left - 2.0 * mid + right
    if denom >= -1e-12:
        return 0.0
    offset = 0.5 * (left - right) / denom
    return float(np.clip(offset, -0.5, 0.5)) * step


def fuse_ml(messages, bounds, sigma_range=0.5, sigma_aoa_deg=5.0, cell_m=0.25):
    """Maximum-likelihood target position from any number of messages.

    Sums per-message Gaussian log-likelihoods over the ground grid that
    ``bounds`` = (x_lo, x_hi, y_lo, y_hi) spans in ``cell_m`` cells (range
    always; angle when the message carries one), takes the best cell, and
    refines each axis with a three-point parabola. Raises on an empty
    message list, on non-finite bounds or bounds that leave an axis no cell
    centre, and, through ``message_loglik``, on a bad sigma."""
    messages = list(messages)
    if not messages:
        raise ValueError("need at least one sensing message")
    if cell_m <= 0:
        raise ValueError("cell size must be positive")
    if not np.all(np.isfinite(bounds)):
        raise ValueError(f"bounds must be finite, got {bounds!r}")
    x_lo, x_hi, y_lo, y_hi = bounds
    xs = np.arange(x_lo + cell_m / 2, x_hi, cell_m)
    ys = np.arange(y_lo + cell_m / 2, y_hi, cell_m)
    if not (xs.size and ys.size):
        raise ValueError(f"bounds {bounds!r} leave an axis no cell centre")
    grid_x, grid_y = np.meshgrid(xs, ys)
    loglik = np.zeros_like(grid_x)
    for m in messages:
        loglik += message_loglik(m, grid_x, grid_y, sigma_range, sigma_aoa_deg)
    iy, ix = np.unravel_index(np.argmax(loglik), loglik.shape)
    x = xs[ix] + _refine_axis(loglik[iy, :], ix, cell_m)
    y = ys[iy] + _refine_axis(loglik[:, ix], iy, cell_m)
    return FusionResult(float(x), float(y), len(messages), xs, ys, loglik)


__all__ = [
    "SensingMessage",
    "FusionResult",
    "fuse_ml",
    "message_loglik",
]
