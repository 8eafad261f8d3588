"""Seeded end-to-end and per-layer benchmark of isacsim.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ranging --seed 0 --seconds 60 --trace 0

Workloads (see ``workloads.py`` and ``design.json``): ranging and coexist.
A run draws the workload's fixed number of items (scenes) from ``--seed``
and processes them as a closed loop with one client and one item at a time,
in one process, on isacsim imported from ``src/`` of the same checkout. The
paper's claims are checked on the items' outputs.

``--trace 0`` runs one pass over all items, then passes over the first
``timed_items`` of them until ``--seconds`` have passed, and reports the
end-to-end metrics. Timings use each timed item's best time over the
passes, and the passes take turns on the process's allowed CPUs: on a
shared 2-vCPU host each vCPU switches, on its own, between a fast and a
slow state about 2x apart, for seconds to over a minute at a time, so means
and medians over a run follow the host's load, while the best of many
passes, seconds apart and on every CPU, repeats from run to run once the
run is long enough to meet a fast phase. Passes repeat identical inputs, so
a change that caches results across calls would look faster here than in
an experiment. Items beyond ``timed_items`` exist so the claims are checked
on enough captures. ``setup_s`` is the median of seven set-ups (this
process and six child processes that only set up, started on each CPU in
turn), each from the top of this script until the first timed item is
ready: imports, scene generation and one warm-up item.

``--trace 1`` runs each item twice, untraced and then traced
(``tracing.py``), and reports the per-layer metrics per traced item,
including ``trace.overhead_frac`` and the accuracy figures. Its counts and
accuracy figures repeat exactly for a seed; its span list is written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed per-item
check or a failed claim makes ``correct`` false and the exit code 1.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: one item at a time on one core keeps timings steady.
# Set before numpy is first imported, or it has no effect.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6
WARMUP_INDEX = 2**31 - 1  # scene index no timed item uses
CPUS = sorted(os.sched_getaffinity(0))


def pin(i):
    """Move this process, and the children it starts from now on, to the
    ``i``-th of its allowed CPUs, round robin."""
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="override the workload's item count (tiny runs)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.items is not None
                                             and args.items < 1):
        parser.error("seed and seconds must be >= 0 and items >= 1")
    return args


def import_program():
    """Import isacsim from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import isacsim
    except ImportError as exc:
        sys.exit(f"cannot import isacsim from {SRC}: {exc}")
    if Path(isacsim.__file__).resolve().parent.parent != SRC:
        sys.exit(f"isacsim was imported from {isacsim.__file__}, not {SRC}")


def provenance(seed):
    import numpy as np

    from isacsim import kernels

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
        except OSError:  # no git on this machine
            res = None
        if res is not None and res.returncode == 0:
            commit = res.stdout.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "has_numba": bool(kernels.HAS_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
    }


def attempt(wl, scene, run=None):
    """Run one item through ``run`` (default ``wl.run``); return (seconds,
    outcome or None, passed its check)."""
    start = time.perf_counter()
    try:
        out = (run or wl.run)(scene)
    except Exception:  # a failed item is counted, reported and the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, False
    seconds = time.perf_counter() - start
    try:
        ok = bool(wl.check(scene, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    return seconds, out, ok


def setup(wl_class, spec, seed, n_items):
    """Build the workload and its scenes, and run one warm-up item."""
    wl = wl_class(spec)
    scenes = [wl.scene(seed, k) for k in range(n_items)]
    attempt(wl, wl.scene(seed, WARMUP_INDEX))
    return wl, scenes


def setup_probes(args):
    """Set-up seconds of fresh processes that stop after set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    times = []
    try:
        for i in range(SETUP_PROBES):
            pin(i)
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=170, check=True)
            times.append(float(res.stdout.strip().splitlines()[-1]))
    finally:
        os.sched_setaffinity(0, CPUS)
    return times


def claims_ok(wl, scenes, outs, failed):
    if failed:
        print("FAIL: claims not evaluated, items failed")
        return False
    claims = wl.claims(scenes, outs)
    for desc, ok in claims:
        print(f"{'PASS' if ok else 'FAIL'}: {desc}")
    return all(ok for _, ok in claims)


def timed_run(args, wl, scenes, n_timed, setup_s):
    """One untraced pass over every item, then passes over the first
    ``n_timed`` items, each pass on the next CPU; returns (attempted,
    failed, correct, metrics)."""
    n = len(scenes)
    best = [float("inf")] * n_timed
    first_outs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    try:
        while attempted < n or time.perf_counter() - start < args.seconds:
            k = attempted if attempted < n else (attempted - n) % n_timed
            if attempted >= n and k == 0:
                pin((attempted - n) // n_timed + 1)
            seconds, out, ok = attempt(wl, scenes[k])
            if k < n_timed:
                best[k] = min(best[k], seconds)
            failed += not ok
            if attempted < n:
                first_outs.append(out)
            attempted += 1
    finally:
        os.sched_setaffinity(0, CPUS)
    wall = time.perf_counter() - start

    print(f"items: {n} checked, {n_timed} timed; attempts: {attempted} in "
          f"{wall:.2f} s ({failed} failed)")
    correct = claims_ok(wl, scenes, first_outs, failed)
    if not failed:
        print(f"accuracy: {json.dumps(wl.accuracy(scenes, first_outs))}")
    setups = [setup_s] + setup_probes(args)
    print(f"setup_s samples: {setups}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "item_ms_p50": (1e3 * statistics.median(best), "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return attempted, failed, correct, metrics


def traced_run(args, wl, scenes, prov):
    """Each item untraced, then traced; returns (attempted, failed, correct,
    metrics)."""
    import tracing

    tracer = tracing.Tracer()
    untraced_s, outs, failed = 0.0, [], 0
    for k, scene in enumerate(scenes):
        seconds, out, ok = attempt(wl, scene)
        untraced_s += seconds
        outs.append(out)
        failed += not ok
        tracer.install()
        try:
            _, _, ok = attempt(wl, scene, lambda s: tracer.item(k, wl.run, s))
        finally:
            tracer.uninstall()
        failed += not ok
    n = len(scenes)
    print(f"items: {n} untraced + {n} traced ({failed} failed)")
    if tracer.absent:
        print(f"absent spans: {', '.join(tracer.absent)}")
    correct = claims_ok(wl, scenes, outs, failed)
    summary = tracer.summary()
    if not failed:
        summary.update(wl.accuracy(scenes, outs))
    traced_s = summary["bench.item_ms"] * n / 1e3
    summary["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"provenance": prov, **tracer.dump()}))
    print(f"spans: {path.relative_to(ROOT)}")

    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (summary.get(name, 0.0), unit)
               for name, unit in declared.items()}
    return 2 * n, failed, correct, metrics


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    spec = json.loads((HERE / "design.json").read_text())["workloads"][args.workload]
    n_items = args.items or spec["items"]
    n_timed = min(n_items, spec["timed_items"])
    wl, scenes = setup(workloads.WORKLOADS[args.workload], spec, args.seed, n_items)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(setup_s)
        return 0

    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    if args.trace:
        attempted, failed, correct, metrics = traced_run(args, wl, scenes, prov)
    else:
        attempted, failed, correct, metrics = timed_run(args, wl, scenes, n_timed,
                                                      setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
