"""The two benchmark workloads: seeded scene generators and one timed item each.

Every workload draws its scene parameters from ``(seed, item index)`` with its
own generator, built only on isacsim's public layer APIs, so a refactor of
``isacsim.experiments`` cannot change the inputs. ``scene`` is cheap and runs
outside the timed region; ``run`` is the timed item and receives only the
scene. Layer functions are always reached as module attributes
(``channel.synthesize_csi_series`` and so on) so the tracer in ``tracing.py``
can replace them.

Each workload also defines ``check`` (the per-item check), ``claims`` (the
paper's claims, with the experiments' own thresholds, over a list of
outcomes) and ``accuracy`` (its accuracy figures, reported as per-layer
metrics of the layer that produced them).
"""

import numpy as np

from isacsim import channel, estimate, mac, ofdm
from isacsim.channel import PropagationPath, ScenarioGeometry, linear_trajectory


def _grid(spec):
    start, stop, step = spec
    return np.arange(start, stop, step)


def _lognormal_times(rng, n, median_gap, sigma):
    return np.cumsum(rng.lognormal(np.log(median_gap), sigma, size=n))


class Ranging:
    """One capture of a mover behind static clutter, processed like the
    ``ranging`` experiment: sparse delay-Doppler solve, MUSIC and IFFT."""

    salt = 101

    def __init__(self, spec):
        self.p = spec["scene"]
        self.claim_m = spec["claims"]["sparse_median_max_m"]
        self.cfg = ofdm.RadioConfig()
        self.delay_grid = _grid(self.p["delay_grid_s"])
        self.doppler_grid = _grid(self.p["doppler_grid_hz"])
        signed = np.sort(self.cfg.signed_index())
        runs = np.split(signed, np.flatnonzero(np.diff(signed) != 1) + 1)
        self.subarray = min(self.p["music_subarray_len"],
                            max(r.size for r in runs))

    def scene(self, seed, k):
        p = self.p
        rng = np.random.default_rng([seed, k, self.salt])
        truth = float(rng.uniform(*p["range_m"]))
        speed = float(rng.uniform(*p["speed_mps"])) * float(rng.choice([-1.0, 1.0]))
        clutter = float(rng.uniform(*p["clutter_m"]))
        while abs(clutter - truth) < p["clutter_min_separation_m"]:
            clutter = float(rng.uniform(*p["clutter_m"]))
        # monostatic power falls as range^-4; this rcs puts the clutter
        # echo the configured number of dB below the mover's
        rcs = (clutter / truth) ** 4 * 10 ** (-p["clutter_below_target_db"] / 10)
        times = _lognormal_times(rng, p["n_packets"], p["gap_median_s"],
                                 p["gap_sigma"])
        return dict(truth_m=truth, speed_mps=speed, clutter_m=clutter,
                    clutter_rcs=rcs, times=times, noise_key=[seed, k, self.salt, 1])

    def run(self, s):
        p, cfg = self.p, self.cfg
        geom = ScenarioGeometry(targets=(
            PropagationPath(trajectory=linear_trajectory(
                (s["truth_m"], 0.0, 0.0), (s["speed_mps"], 0.0, 0.0))),
            PropagationPath(position=(s["clutter_m"], 0.0, 0.0),
                            rcs=s["clutter_rcs"]),
        ))
        csi = channel.synthesize_csi_series(
            geom, cfg, s["times"], snr_db=p["snr_db"],
            rng=np.random.default_rng(s["noise_key"]))
        feats = estimate.estimate_features_sparse(
            csi, estimate.TxSchedule(s["times"]), cfg,
            delay_grid=self.delay_grid, doppler_grid=self.doppler_grid,
            max_iters=p["max_iters"], tol=p["tol"])
        tau, _, _ = feats.dominant(min_doppler_hz=p["min_doppler_hz"])
        music = estimate.range_music(csi, 1, cfg, subarray_len=self.subarray)
        return {
            "sparse": ofdm.SPEED_OF_LIGHT * tau / 2.0,
            "music": float(music.values[0]),
            "ifft": estimate.range_ifft(csi, cfg),
        }

    def check(self, s, out):
        return all(np.isfinite(v) and v >= 0.0 for v in out.values())

    def _medians(self, scenes, outs):
        return {m: float(np.median([abs(o[m] - s["truth_m"])
                                    for s, o in zip(scenes, outs)]))
                for m in ("sparse", "music", "ifft")}

    def claims(self, scenes, outs):
        med = self._medians(scenes, outs)
        return [
            (f"sparse median range error {med['sparse']:.3f} m <= "
             f"{self.claim_m} m", med["sparse"] <= self.claim_m),
            (f"error ordering sparse ({med['sparse']:.3f}) < MUSIC "
             f"({med['music']:.3f}) < IFFT ({med['ifft']:.3f})",
             med["sparse"] < med["music"] < med["ifft"]),
        ]

    def accuracy(self, scenes, outs):
        return {"estimate.range_err_m_p50": self._medians(scenes, outs)["sparse"]}


class Coexist:
    """One MAC scenario triple for two devices: sensing on with CSI capture
    of a walking target, sensing off, and the forced separator."""

    salt = 303

    def __init__(self, spec):
        self.p = spec["scene"]
        self.margin = spec["claims"]["forced_loss_margin"]

    def scene(self, seed, k):
        p = self.p
        rng = np.random.default_rng([seed, k, self.salt])
        kinds = p["traffic_rotation"]
        return dict(
            traffic=kinds[k % len(kinds)],
            traffic_seed=int(rng.integers(0, 2**31)),
            mac_seed=int(rng.integers(0, 2**31)),
            separation_m=float(rng.uniform(*p["separation_m"])),
            walker_start=(float(rng.uniform(*p["walker_x_m"])),
                          float(rng.uniform(*p["walker_y_m"])), 0.0),
            walker_velocity=(float(rng.uniform(*p["walker_vx_mps"])),
                             float(rng.uniform(*p["walker_vy_mps"])), 0.0),
        )

    def _traffic(self, s):
        if s["traffic"] == "regular":
            return mac.TrafficModel.regular(self.p["regular_rate_hz"],
                                            seed=s["traffic_seed"])
        if s["traffic"] == "streaming":
            return mac.TrafficModel.streaming(seed=s["traffic_seed"])
        return mac.TrafficModel.gaming(seed=s["traffic_seed"])

    def run(self, s):
        p = self.p
        walker = ScenarioGeometry(targets=(PropagationPath(
            trajectory=linear_trajectory(s["walker_start"],
                                         s["walker_velocity"])),))
        traffic = self._traffic(s)

        def scenario(geometry, **kw):
            devices = [mac.MacDevice("dev-a", (0.0, 0.0, 0.0)),
                       mac.MacDevice("dev-b", (s["separation_m"], 0.0, 0.0))]
            return mac.run_scenario(
                devices, geometry, traffic, p["duration_s"], seed=s["mac_seed"],
                link_snr_db=p["link_snr_db"], log=False, **kw)

        return {
            "on": scenario(walker, sensing_enabled=True, collect_csi=True),
            "off": scenario(None, sensing_enabled=False),
            "forced": scenario(None, sensing_enabled=True, force_separator=True),
        }

    def check(self, s, out):
        on, off, forced = out["on"], out["off"], out["forced"]
        keys = ("delay_ms_p50", "delay_ms_p95", "loss_rate")
        return (
            all(on.stats[key] == off.stats[key] for key in keys)
            and on.separator_mismatches == 0 and forced.separator_mismatches == 0
            and not on.violations and not forced.violations
            and forced.stats["loss_rate"] > off.stats["loss_rate"] + self.margin
            and len(on.csi_records) > 0
            and all(np.all(np.isfinite(r.values)) for r in on.csi_records)
        )

    def claims(self, scenes, outs):
        ok = sum(self.check(s, o) for s, o in zip(scenes, outs))
        return [(f"{ok}/{len(outs)} triples: delay and loss identical with "
                 f"sensing on and off, zero separator mismatches, no "
                 f"violations, forced loss > off loss + {self.margin}",
                 ok == len(outs))]

    def accuracy(self, scenes, outs):
        return {}


WORKLOADS = {
    "ranging": Ranging,
    "coexist": Coexist,
}
