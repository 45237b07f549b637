"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload section7 --seed 1 --seconds 50 --trace 0

``--trace 0`` times the workload with the library uninstrumented and
reports the end-to-end metrics; ``--trace 1`` runs a fixed list of ops
twice each, untraced then traced with per-layer wrappers installed
(``layers.py``), and reports per-layer self time and counts.  Every op's
result is checked against the pinned oracles outside the timed region;
a failed check or a raised exception counts as a failed op and makes the
command exit 1.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it stamps the run with the host (``nproc``, Python,
numpy, default backend, a calibration loop's time -- recorded, never
used to scale a metric) and the raw samples behind the medians.
See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _entry in (str(HERE), str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 3
#: Iterations of the fixed calibration loop stamped on every result.
CALIBRATION_LOOP = 2_000_000
#: Longest wait for the pool workers an op leaves behind to exit.
REAP_TIMEOUT_S = 60.0


def _import_library() -> None:
    """Everything an op calls, imported before the first timed op."""
    import repro.attack  # noqa: F401
    import repro.core  # noqa: F401
    import repro.examples_lib  # noqa: F401
    import repro.logic  # noqa: F401
    import repro.robustness  # noqa: F401


def _make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed)
    return workload


def _cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _reap_children() -> None:
    """Wait for pool workers to exit so their CPU time is accounted.

    The fault-tolerant engine shuts its pool down without joining, so
    workers can outlive the call that started them by a moment.
    """
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still running after the op returned")
        time.sleep(0.002)


def timed_op(workload, item):
    """Run one op: (result, wall seconds, CPU seconds incl. its workers)."""
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    result = workload.run(item)
    wall = time.perf_counter() - started
    _reap_children()
    return result, wall, _cpu_seconds() - cpu_before


def calibrate() -> float:
    """Time of a fixed pure-Python loop: a record of host speed."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value & 7
    if total < 0:  # keeps the loop's result live
        raise RuntimeError("unreachable")
    return time.perf_counter() - started


def host_stamp() -> dict:
    from repro.probability import get_default_backend, wordmask

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": bool(wordmask.available()),
        "default_backend": get_default_backend(),
        "calibration_s": calibrate(),
    }


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------


def probe_setup(args) -> int:
    """Child side of the set-up measurement: set up, say so, exit."""
    _import_library()
    workload = _make_workload(args.workload, args.seed)
    workload.round()
    print("ready", flush=True)
    return 0


def measure_setup(args) -> list:
    """Interpreter start to ready-for-the-first-op, in fresh processes."""
    samples = []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--probe-setup",
    ]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)

    def attempt(self, workload, item):
        """Time one op; ``None`` if it raised (counted as failed)."""
        self.attempted += 1
        try:
            return timed_op(workload, item)
        except Exception:
            self.fail(f"{item!r} raised:\n{traceback.format_exc()}")
            return None

    def check(self, workload, item, result) -> None:
        try:
            problems = workload.check(item, result)
        except Exception:
            problems = [f"{item!r}: check raised:\n{traceback.format_exc()}"]
        if problems:
            self.fail("; ".join(problems))


def end_to_end(args, workload, tally: Tally) -> tuple:
    """Closed-loop rounds until ``--seconds`` of op time; e2e metrics."""
    walls, cpus, items = [], [], []
    rounds = 0
    while True:
        for item in workload.round():
            timed = tally.attempt(workload, item)
            if timed is None:
                continue
            result, wall, cpu = timed
            walls.append(wall)
            cpus.append(cpu)
            items.append(repr(item))
            tally.check(workload, item, result)
        rounds += 1
        if not walls:
            break
        # End on the round boundary closest to --seconds of op time.
        elapsed = sum(walls)
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break
    samples = {"rounds": rounds, "ops": len(walls), "items": items, "op_s": walls, "cpu_s": cpus}
    if not walls:
        return {}, samples
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
        "cpu_ms_per_op": (sum(cpus) / len(cpus) * 1000.0, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, samples


def traced(workload, tally: Tally) -> tuple:
    """Each op untraced then traced; per-layer metrics of the traced pass."""
    import layers
    from repro.obs.recorder import use_recorder
    from repro.probability import kernel_totals

    items = workload.trace_items()
    recorder = layers.BenchRecorder()
    untraced_walls, traced_walls = [], []
    cache = {"hits": 0, "misses": 0}
    artifacts = {"checkpoint": 0, "audit": 0}
    missing = []
    for item in items:
        timed = tally.attempt(workload, item)
        if timed is not None:
            untraced_walls.append(timed[1])
            tally.check(workload, item, timed[0])
        installation = layers.install()
        missing = installation.missing
        before = kernel_totals()
        try:
            with use_recorder(recorder):
                timed = tally.attempt(workload, item)
        finally:
            installation.uninstall()
        after = kernel_totals()
        cache["hits"] += after["cache_hits"] - before["cache_hits"]
        cache["misses"] += after["cache_misses"] - before["cache_misses"]
        if timed is None:
            continue
        traced_walls.append(timed[1])
        for kind, size in workload.artifact_bytes(timed[0]).items():
            artifacts[kind] += size
        tally.check(workload, item, timed[0])
    if not traced_walls or not untraced_walls:
        return {}, {"missing_targets": missing}
    parent = layers.recorder_spans(recorder)
    workers = {path: tuple(entry) for path, entry in recorder.worker_spans.items()}
    spans = layers.merged_spans(parent, workers)
    own = layers.self_times(spans)
    totals = layers.span_totals(spans)
    parent_totals = layers.span_totals(parent)
    counters = recorder.counters

    def self_s(name):
        return (own.get(name, 0.0), "s")

    def calls(name):
        return (totals.get(name, (0, 0.0))[0], "count")

    def wall_s(name):
        return (parent_totals.get(name, (0, 0.0))[1], "s")

    def count(name):
        return (int(counters.get(name, 0)), "count")

    def sweep_rows(table):
        return [entry for path, entry in table.items() if path.split("/")[-1] == "sweep_row"]

    lookups = cache["hits"] + cache["misses"]
    untraced_p50 = statistics.median(untraced_walls)
    traced_p50 = statistics.median(traced_walls)
    metrics = {
        "trees.build_tree.calls": calls("trees.build_tree"),
        "trees.build_tree.self_s": self_s("trees.build_tree"),
        "trees.tree_index.self_s": self_s("trees.tree_index"),
        "trees.psys_init.self_s": self_s("trees.psys_init"),
        "core.system_index.self_s": self_s("core.system_index"),
        "core.points": count(layers.POINTS_COUNTER),
        "core.assignment_index.self_s": self_s("core.assignment_index"),
        "core.induced_point_space.calls": calls("core.induced_point_space"),
        "core.induced_point_space.self_s": self_s("core.induced_point_space"),
        "core.fact_restrict.self_s": self_s("core.fact_restrict"),
        "probability.space_init.self_s": self_s("probability.space_init"),
        "probability.measure.calls": calls("probability.measure"),
        "probability.measure.self_s": self_s("probability.measure"),
        "probability.interval_cache.hit_ratio": (
            cache["hits"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "logic.extension.calls": calls("logic.extension"),
        "logic.extension.self_s": self_s("logic.extension"),
        "logic.gfp_iterations": count("model.gfp_iterations"),
        "logic.explain.self_s": self_s("logic.explain"),
        "core.cuts.enumerated": count(layers.CUTS_COUNTER),
        "core.cuts.enumerate.self_s": self_s("core.cuts.enumerate"),
        "attack.post_threshold.self_s": self_s("attack.post_threshold"),
        "attack.sweep_row.calls": (
            sum(entry[0] for entry in sweep_rows(spans)),
            "count",
        ),
        "attack.sweep_row.worker_s": (
            sum(entry[1] for entry in sweep_rows(workers)),
            "s",
        ),
        "attack.guarantee_sweep.wall_s": wall_s("attack.guarantee_sweep"),
        "attack.parallel_guarantee_sweep.wall_s": wall_s("attack.parallel_guarantee_sweep"),
        "robustness.robust_guarantee_sweep.wall_s": wall_s("robustness.robust_guarantee_sweep"),
        "robustness.run_tasks.wait_s": (
            layers.seconds_under(parent, "robustness.robust_guarantee_sweep", "futures.wait"),
            "s",
        ),
        "robustness.engine.attempts": count("engine.attempts"),
        "robustness.engine.retries": count("engine.retries"),
        "robustness.checkpoint.append.self_s": self_s("robustness.checkpoint.append"),
        "robustness.checkpoint.bytes": (artifacts["checkpoint"], "count"),
        "obs.audit.append.self_s": self_s("obs.audit.append"),
        "obs.audit.rebuilds": count(layers.AUDIT_REBUILDS_COUNTER),
        "obs.audit.bytes": (artifacts["audit"], "count"),
        "bench.traced_ops": (len(traced_walls), "count"),
        "bench.untraced_op_p50_s": (untraced_p50, "s"),
        "bench.traced_op_p50_s": (traced_p50, "s"),
        "bench.trace_overhead_s": (traced_p50 - untraced_p50, "s"),
        "bench.unattributed_s": (sum(traced_walls) - layers.covered_seconds(parent), "s"),
    }
    samples = {
        "untraced_op_s": untraced_walls,
        "traced_op_s": traced_walls,
        "missing_targets": missing,
    }
    return metrics, samples


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)
    _import_library()
    workload = _make_workload(args.workload, args.seed)
    tally = Tally()
    stamp = host_stamp()
    try:
        if args.trace:
            import selftest

            selftest.run()
            metrics, samples = traced(workload, tally)
        else:
            setup_samples = measure_setup(args)
            metrics, samples = end_to_end(args, workload, tally)
            if metrics:
                metrics = {"setup_s": (statistics.median(setup_samples), "s"), **metrics}
            samples["setup_s"] = setup_samples
    finally:
        workload.close()
        _reap_children()
    if not metrics:
        tally.fail("no op completed")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        "failures": tally.reasons,
        "host": stamp,
        "samples": samples,
        "wall_s": time.perf_counter() - _STARTED,
    }
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
