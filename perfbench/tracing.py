"""Spans around the calls into each isacsim layer, recorded from outside.

``Tracer.install`` replaces module attributes such as
``isacsim.cancel.calibrate`` with wrappers that record a span (name, item,
parent span, start, end) plus a few counts taken from the call's arguments
or result. isacsim's modules call each other through these attributes
(``cancel`` calls ``kernels.nlms_fir``, ``mac`` calls ``cancel.calibrate``
and ``channel.synthesize_csi_series``), so the spans nest without editing
the source. An attribute that no longer exists is reported as absent and
its metrics read zero. Spans stay in memory until the run ends.
"""

import functools
import inspect
import time

import numpy as np

from isacsim import cancel, channel, estimate, kernels, mac


def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _synth_counts(sig, args, kwargs, result):
    return {"packets": int(np.size(_bound(sig, args, kwargs)["times"]))}


def _admm_counts(sig, args, kwargs, result):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _calibrate_counts(sig, args, kwargs, result):
    digital = [e[2] for e in result.log if e[1] == "digital"]
    return {"digital_residual_db": float(digital[-1])} if digital else {}


def _nlms_counts(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    return {"samples": len(a["ref"]) * int(a["n_passes"])}


def _mac_counts(sig, args, kwargs, result):
    return {"events": int(result.n_events),
            "mismatches": int(result.separator_mismatches)}


# (module, attribute, span name, counts taken from the call)
TARGETS = (
    (channel, "synthesize_csi_series", "channel.synth", _synth_counts),
    (estimate, "estimate_features_sparse", "estimate.sparse", None),
    (estimate, "admm_lasso", "estimate.admm", _admm_counts),
    (estimate, "range_music", "estimate.music", None),
    (estimate, "range_ifft", "estimate.baseline", None),
    (cancel, "calibrate", "cancel.calibrate", _calibrate_counts),
    (kernels, "nlms_fir", "kernels.nlms", _nlms_counts),
    (kernels, "fir_apply", "kernels.fir", None),
    (mac, "run_scenario", "mac.scenario", _mac_counts),
)

ITEM = "bench.item"
LAYERS = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """In-memory span recorder; install it only around traced items."""

    def __init__(self):
        # each span: [name, item, parent index, start, end, counts]
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []
        self._item = None

    def install(self):
        for module, attr, name, counts in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                qualified = f"{module.__name__}.{attr}"
                if qualified not in self.absent:
                    self.absent.append(qualified)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _open(self, name, item):
        parent = self._stack[-1] if self._stack else None
        span = [name, item, parent, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, self._item)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts:
                span[5] = counts(sig, args, kwargs, result)
            return result

        return traced

    def item(self, k, fn, *args):
        """Run ``fn(*args)`` as item ``k`` under a root span; return its result."""
        self._item = k
        span = self._open(ITEM, k)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._item = None

    def self_times(self):
        """Seconds of each span not covered by its child spans."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[4] - s[3]
        return own

    def summary(self):
        """Per-layer metrics, per traced item; zero for layers never called."""
        own = self.self_times()
        n_items = sum(1 for s in self.spans if s[0] == ITEM) or 1
        by_name = {name: {"calls": 0, "self": 0.0, "counts": []}
                   for name in LAYERS + [ITEM]}
        item_wall = 0.0
        for s, t in zip(self.spans, own):
            agg = by_name[s[0]]
            agg["calls"] += 1
            agg["self"] += t
            if s[5]:
                agg["counts"].append(s[5])
            if s[0] == ITEM:
                item_wall += s[4] - s[3]

        def per_item(x):
            return x / n_items

        def ms(name):
            return per_item(1e3 * by_name[name]["self"])

        def total(name, key):
            return sum(c.get(key, 0) for c in by_name[name]["counts"])

        def ratio(num, den):
            return num / den if den else 0.0

        synth_packets = total("channel.synth", "packets")
        admm = by_name["estimate.admm"]["counts"]
        iters = [c["iters"] for c in admm]
        residuals = [c["digital_residual_db"]
                     for c in by_name["cancel.calibrate"]["counts"]
                     if "digital_residual_db" in c]
        events = total("mac.scenario", "events")
        return {
            "channel.synth.calls": per_item(by_name["channel.synth"]["calls"]),
            "channel.synth.packets": per_item(synth_packets),
            "channel.synth.self_ms": ms("channel.synth"),
            "channel.synth.us_per_packet": ratio(
                1e6 * by_name["channel.synth"]["self"], synth_packets),
            "estimate.sparse.calls": per_item(by_name["estimate.sparse"]["calls"]),
            "estimate.sparse.self_ms": ms("estimate.sparse"),
            "estimate.admm.calls": per_item(by_name["estimate.admm"]["calls"]),
            "estimate.admm.self_ms": ms("estimate.admm"),
            "estimate.admm.iters_p50": float(np.median(iters)) if iters else 0.0,
            "estimate.admm.iters_max": float(max(iters)) if iters else 0.0,
            "estimate.admm.converged_frac": ratio(
                sum(c["converged"] for c in admm), len(admm)),
            "estimate.admm.ms_per_iter": ratio(
                1e3 * by_name["estimate.admm"]["self"], sum(iters)),
            "estimate.music.self_ms": ms("estimate.music"),
            "estimate.baseline.self_ms": ms("estimate.baseline"),
            "cancel.calibrate.calls": per_item(by_name["cancel.calibrate"]["calls"]),
            "cancel.calibrate.self_ms": ms("cancel.calibrate"),
            "cancel.digital_residual_db_p50": (
                float(np.median(residuals)) if residuals else 0.0),
            "kernels.nlms.calls": per_item(by_name["kernels.nlms"]["calls"]),
            "kernels.nlms.self_ms": ms("kernels.nlms"),
            "kernels.nlms.samples": per_item(total("kernels.nlms", "samples")),
            "kernels.fir.self_ms": ms("kernels.fir"),
            "mac.scenario.calls": per_item(by_name["mac.scenario"]["calls"]),
            "mac.scenario.self_ms": ms("mac.scenario"),
            "mac.events": per_item(events),
            "mac.us_per_event": ratio(1e6 * by_name["mac.scenario"]["self"], events),
            "mac.separator_mismatches": per_item(total("mac.scenario", "mismatches")),
            "bench.unattributed_ms": ms(ITEM),
            "bench.item_ms": per_item(1e3 * item_wall),
        }

    def dump(self):
        return {"absent": self.absent,
                "fields": ["name", "item", "parent", "start_s", "end_s", "counts"],
                "spans": self.spans}
