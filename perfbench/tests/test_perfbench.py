"""Tests of the benchmark itself. Run from the repository root with::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` as the benchmark contract does, on a
few items per workload so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY_ITEMS = {"ranging": 4, "coexist": 2}

# counts taken by the tracer; they must repeat exactly for a seed
COUNT_METRICS = [
    "channel.synth.calls", "channel.synth.packets",
    "estimate.sparse.calls", "estimate.admm.calls", "estimate.admm.iters_p50",
    "estimate.admm.iters_max", "estimate.admm.converged_frac",
    "cancel.calibrate.calls", "cancel.digital_residual_db_p50",
    "kernels.nlms.calls", "kernels.nlms.samples",
    "mac.scenario.calls", "mac.events", "mac.separator_mismatches",
]

ACCURACY_METRICS = ["estimate.range_err_m_p50"]

_cache = {}


def run(workload, trace, seed=3, rep=0):
    """Last-line JSON of one tiny run (cached per arguments)."""
    key = (workload, trace, seed, rep)
    if key not in _cache:
        res = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--items", str(TINY_ITEMS[workload])],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        _cache[key] = (res, json.loads(res.stdout.strip().splitlines()[-1]))
    return _cache[key]


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_failed_item_and_declared_metrics(workload):
    _, out = run(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] == TINY_ITEMS[workload]
    assert out["failed"] == 0
    assert out["metrics"]["ok_frac"]["value"] == 1.0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(
        "end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_declared_per_layer_metrics(workload):
    res, out = run(workload, trace=1)
    assert out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(
        "per_layer")
    assert "absent spans" not in res.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_accuracy_and_counts(workload):
    first, again = run(workload, trace=1)[1], run(workload, trace=1, rep=1)[1]
    for name in COUNT_METRICS + ACCURACY_METRICS:
        assert first["metrics"][name] == again["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_sum_to_item_time(workload):
    m = {k: v["value"] for k, v in run(workload, trace=1)[1]["metrics"].items()}
    parts = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert parts + m["bench.unattributed_ms"] == pytest.approx(
        m["bench.item_ms"], rel=1e-9)


def test_layers_carry_each_workload():
    def metrics(workload):
        return {k: v["value"]
                for k, v in run(workload, trace=1)[1]["metrics"].items()}

    m = metrics("ranging")
    estimate = sum(v for k, v in m.items()
                   if k.startswith("estimate.") and k.endswith("self_ms"))
    assert estimate > 0.5 * m["bench.item_ms"]
    m = metrics("coexist")
    assert (m["mac.scenario.self_ms"] + m["channel.synth.self_ms"]
            > 0.5 * m["bench.item_ms"])
    assert m["kernels.nlms.self_ms"] > 0
    spans = json.loads((ROOT / "perfbench" / "out" /
                        "trace-coexist-seed3.json").read_text())["spans"]
    nlms_parents = {spans[s[2]][0] for s in spans if s[0] == "kernels.nlms"}
    assert nlms_parents == {"cancel.calibrate"}


def test_interaction_map_covers_every_per_layer_metric():
    mapped = [m for group in DESIGN["interactions"] for m in group["metrics"]]
    assert sorted(mapped) == sorted(declared("per_layer"))
    for group in DESIGN["interactions"]:
        for entry in group["moves"]:
            assert entry["workload"] in WORKLOADS
            assert entry["metric"] in declared("end_to_end")
        for entry in group["must_hold"]:
            assert entry["workload"] in WORKLOADS
            assert entry["metric"] in ACCURACY_METRICS
        assert set(group["no_change"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ranging",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
