"""Tests for sensing messages and maximum-likelihood fusion."""

import numpy as np
import pytest

from isacsim import fusion
from isacsim.fusion import SensingMessage, fuse_ml, message_loglik
from isacsim.sigcore import wrap_deg


def message_for(device_id, pose, target, t_s=0.0, rng=None,
                sigma_range=0.0, sigma_aoa=0.0, confidence=1.0):
    """Noise-perturbed observation of ``target`` from a device pose."""
    dx, dy, heading = pose
    r = float(np.hypot(target[0] - dx, target[1] - dy))
    aoa = float(wrap_deg(np.degrees(np.arctan2(target[1] - dy, target[0] - dx))
                         - heading))
    if rng is not None:
        r = max(0.0, r + sigma_range * rng.standard_normal())
        aoa = float(wrap_deg(aoa + sigma_aoa * rng.standard_normal()))
    return SensingMessage(device_id, t_s, dx, dy, heading, r, aoa,
                          confidence=confidence)


TWO_POSES = {"dev-a": (0.0, 0.0, 0.0), "dev-b": (10.0, 0.0, 180.0)}
TARGET = (5.0, 3.0)
# both devices' noiseless range to TARGET plus 1 m around each device
_REACH = np.hypot(5.0, 3.0) + 1.0
TWO_POSE_BOUNDS = (-_REACH, 10.0 + _REACH, -_REACH, _REACH)


class TestSensingMessage:
    def test_nonfinite_fields_rejected(self):
        with pytest.raises(ValueError):
            SensingMessage("a", float("nan"), 0, 0, 0, 1.0, 0.0)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            SensingMessage("a", 0.0, 0, 0, 0, -1.0, 0.0)

    def test_nonpositive_confidence_rejected(self):
        with pytest.raises(ValueError):
            SensingMessage("a", 0.0, 0, 0, 0, 1.0, 0.0, confidence=0.0)

    @pytest.mark.parametrize("aoa", [float("inf"), float("-inf")])
    def test_infinite_aoa_rejected(self, aoa):
        with pytest.raises(ValueError, match="aoa_deg"):
            SensingMessage("a", 0.0, 0, 0, 0, 5.0, aoa)

    def test_nan_aoa_allowed_for_range_only(self):
        m = SensingMessage("a", 0.0, 0, 0, 0, 5.0)
        assert not np.isfinite(m.aoa_deg)


class TestFuseMl:
    def test_single_message_matches_closed_form(self):
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        res = fuse_ml([m], sigma_range=0.3, sigma_aoa_deg=3.0,
                      bounds=(-6.0, 6.0, -6.0, 6.0))
        # closed form: device + range * (cos, sin)(heading + aoa)
        ang = np.radians(m.heading_deg + m.aoa_deg)
        oracle = (m.x_m + m.range_m * np.cos(ang), m.y_m + m.range_m * np.sin(ang))
        assert abs(res.x_m - oracle[0]) <= 0.125
        assert abs(res.y_m - oracle[1]) <= 0.125

    def test_single_message_off_axis(self):
        m = message_for("dev-a", (2.0, -1.0, 30.0), (6.0, 4.0))
        r = np.hypot(4.0, 5.0) + 1.0
        res = fuse_ml([m], bounds=(2.0 - r, 2.0 + r, -1.0 - r, -1.0 + r))
        assert abs(res.x_m - 6.0) <= 0.125
        assert abs(res.y_m - 4.0) <= 0.125

    def test_two_devices_noiseless_recovers_target(self):
        msgs = [message_for(d, p, TARGET) for d, p in TWO_POSES.items()]
        res = fuse_ml(msgs, bounds=TWO_POSE_BOUNDS)
        assert abs(res.x_m - TARGET[0]) <= 0.125
        assert abs(res.y_m - TARGET[1]) <= 0.125

    def test_argmax_matches_exhaustive_recomputation(self):
        msgs = [message_for(d, p, TARGET) for d, p in TWO_POSES.items()]
        res = fuse_ml(msgs, cell_m=0.5, bounds=(0.0, 10.0, -2.0, 6.0))
        best = None
        for iy, y in enumerate(res.ys):
            for ix, x in enumerate(res.xs):
                ll = sum(
                    float(fusion.message_loglik(m, x, y)) for m in msgs
                )
                assert ll == pytest.approx(res.loglik[iy, ix], abs=1e-9)
                if best is None or ll > best[0]:
                    best = (ll, ix, iy)
        # the fix is the best cell moved by at most half a cell per axis
        assert abs(res.x_m - res.xs[best[1]]) <= 0.25
        assert abs(res.y_m - res.ys[best[2]]) <= 0.25

    def test_duplicated_messages_keep_argmax(self):
        msgs = [message_for(d, p, TARGET) for d, p in TWO_POSES.items()]
        a = fuse_ml(msgs, bounds=TWO_POSE_BOUNDS)
        b = fuse_ml(msgs * 3, bounds=TWO_POSE_BOUNDS)
        assert b.n_messages == 3 * a.n_messages
        assert np.argmax(a.loglik) == np.argmax(b.loglik)

    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            fuse_ml([], bounds=TWO_POSE_BOUNDS)

    def test_bad_cell_size_rejected(self):
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        with pytest.raises(ValueError):
            fuse_ml([m], bounds=TWO_POSE_BOUNDS, cell_m=0.0)

    @pytest.mark.parametrize("cell_m", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_cell_size_rejected(self, cell_m):
        # a NaN cell passed the old positivity check and failed in np.arange
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        with pytest.raises(ValueError, match="cell_m"):
            fuse_ml([m], bounds=TWO_POSE_BOUNDS, cell_m=cell_m)

    @pytest.mark.parametrize("sigmas", [
        {"sigma_range": 0.0},
        {"sigma_range": -0.5},
        {"sigma_range": float("nan")},
        {"sigma_aoa_deg": float("inf")},
        {"sigma_aoa_deg": 0.0},
    ])
    def test_bad_sigma_rejected(self, sigmas):
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        name = next(iter(sigmas))
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            fuse_ml([m], bounds=TWO_POSE_BOUNDS, **sigmas)
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            message_loglik(m, 1.0, 1.0, **sigmas)

    def test_degenerate_bounds_rejected(self):
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        with pytest.raises(ValueError):
            fuse_ml([m], bounds=(1.0, 1.0, 0.0, 2.0))

    def test_bounds_without_a_cell_centre_rejected(self):
        # 0.1 m spans hold no centre of a 0.25 m cell
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        with pytest.raises(ValueError, match=r"bounds \(0, 0\.1, 0, 0\.1\)"):
            fuse_ml([m], bounds=(0, 0.1, 0, 0.1), cell_m=0.25)

    def test_oversized_grid_rejected(self):
        # 1 um cells over a 12 m box would ask for 1.44e14 cells
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        box = (0.0, 12.0, 0.0, 12.0)
        with pytest.raises(ValueError,
                           match=r"cell_m 1e-06 .* 144000000000000 cells"):
            fuse_ml([m], bounds=box, cell_m=1e-6)
        # the planned 0.05 m grid over that box sits far below the cap
        res = fuse_ml([m], bounds=box, cell_m=0.05)
        assert res.loglik.size == 57_600
        assert 10 * res.loglik.size < fusion.MAX_GRID_CELLS

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_non_finite_bounds_rejected(self, bad):
        m = message_for("dev-a", (0.0, 0.0, 0.0), (5.0, 0.0))
        with pytest.raises(ValueError, match="bounds must be finite"):
            fuse_ml([m], bounds=(-1.0, bad, -1.0, 11.0))

    def test_range_only_messages_fuse_with_bounds(self):
        msgs = []
        for d, p in TWO_POSES.items():
            m = message_for(d, p, TARGET)
            msgs.append(SensingMessage(d, 0.0, m.x_m, m.y_m, m.heading_deg,
                                       m.range_m))  # no angle
        res = fuse_ml(msgs, bounds=(0.0, 10.0, 0.0, 6.0))
        assert abs(res.x_m - TARGET[0]) <= 0.2
        assert abs(res.y_m - TARGET[1]) <= 0.2

    def test_confidence_weights_conflicting_observations(self):
        weak = SensingMessage("a", 0.0, 0.0, 0.0, 0.0, 4.0, 0.0, confidence=1.0)
        strong = SensingMessage("b", 0.0, 0.0, 0.0, 0.0, 7.0, 0.0, confidence=4.0)
        res = fuse_ml([weak, strong], sigma_range=0.5, sigma_aoa_deg=5.0,
                      bounds=(-8.0, 8.0, -8.0, 8.0))
        assert abs(res.x_m - 7.0) < abs(res.x_m - 4.0)

    def test_fused_beats_single_over_trials(self):
        rng = np.random.default_rng(42)
        sigma_r, sigma_a = 0.3, 3.0
        bounds = (-1.0, 11.0, -3.0, 9.0)
        single_err = {d: [] for d in TWO_POSES}
        fused_err = []
        for _ in range(200):
            msgs = {
                d: message_for(d, p, TARGET, rng=rng,
                               sigma_range=sigma_r, sigma_aoa=sigma_a)
                for d, p in TWO_POSES.items()
            }
            for d, m in msgs.items():
                r = fuse_ml([m], sigma_range=sigma_r, sigma_aoa_deg=sigma_a,
                            bounds=bounds)
                single_err[d].append(np.hypot(r.x_m - TARGET[0],
                                              r.y_m - TARGET[1]))
            r = fuse_ml(list(msgs.values()), sigma_range=sigma_r,
                        sigma_aoa_deg=sigma_a, bounds=bounds)
            fused_err.append(np.hypot(r.x_m - TARGET[0], r.y_m - TARGET[1]))
        fused_rmse = float(np.sqrt(np.mean(np.square(fused_err))))
        single_rmse = min(
            float(np.sqrt(np.mean(np.square(v)))) for v in single_err.values()
        )
        assert np.median(fused_err) <= min(
            np.median(v) for v in single_err.values()
        )
        assert fused_rmse <= single_rmse

    def test_grid_validation(self):
        # cell centres tile the bounds, and every cell's log-likelihood is
        # finite (a message or sigma that could make it otherwise is rejected)
        msgs = [message_for(d, p, TARGET) for d, p in TWO_POSES.items()]
        res = fuse_ml(msgs, cell_m=0.5, bounds=(0.0, 10.0, -2.0, 6.0))
        np.testing.assert_allclose(res.xs, np.arange(0.25, 10.0, 0.5))
        np.testing.assert_allclose(res.ys, np.arange(-1.75, 6.0, 0.5))
        assert res.loglik.shape == (res.ys.size, res.xs.size)
        assert np.all(np.isfinite(res.loglik))
