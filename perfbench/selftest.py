"""Self-test of the per-layer arithmetic on a synthetic nested span tree.

Run from the repository root (the traced benchmark run also runs it
first and stops if it fails)::

    python3 perfbench/selftest.py

The spans are recorded by the library's own ``MetricsRecorder`` driven
by a fake clock, so the test covers the path aggregation the traced run
relies on as well as the self-time arithmetic in ``layers.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _entry in (str(HERE), str(HERE.parent / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _close(first: float, second: float) -> bool:
    return abs(first - second) < 1e-9


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _record_tree(recorder, clock: FakeClock) -> None:
    """a[0,10] holds b[1,5] (which holds c[2,3]) and a library span
    lib[5,8] holding c[6,8]; d[10,11] stands alone."""
    with recorder.span("a"):
        clock.advance(1)
        with recorder.span("b"):
            clock.advance(1)
            with recorder.span("c"):
                clock.advance(1)
            clock.advance(2)
        with recorder.span("lib"):
            clock.advance(1)
            with recorder.span("c"):
                clock.advance(2)
        clock.advance(2)
    with recorder.span("d"):
        clock.advance(1)


def check_self_times() -> None:
    import layers
    import repro.obs.metrics as metrics_module

    clock = FakeClock()
    saved = metrics_module.perf_counter
    metrics_module.perf_counter = clock
    try:
        recorder = layers.BenchRecorder()
        _record_tree(recorder, clock)
    finally:
        metrics_module.perf_counter = saved
    names = frozenset({"a", "b", "c", "d"})
    spans = layers.recorder_spans(recorder)
    expect(spans["a/lib/c"] == (1, 2.0), f"path aggregation: {spans}")
    own = layers.self_times(spans, names)
    expected = {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0}
    for name, seconds in expected.items():
        expect(_close(own[name], seconds), f"self({name}) = {own[name]}, want {seconds}")
    expect(_close(sum(own.values()), 11.0), "self times must partition covered time")
    expect(_close(layers.covered_seconds(spans, names), 11.0), "covered time")
    totals = layers.span_totals(spans, names)
    expect(totals["c"] == (2, 3.0), f"c totals {totals['c']}")
    expect(_close(layers.seconds_under(spans, "a", "c"), 3.0), "seconds under a")
    expect(_close(layers.seconds_under(spans, "lib", "c"), 2.0), "seconds under lib")

    # Spans shipped by a worker merge path by path into the same table.
    worker = {"sweep_row/b": (1, 2.0), "sweep_row/b/c": (1, 0.5)}
    merged = layers.self_times(layers.merged_spans(spans, worker), names)
    expect(_close(merged["b"], 4.5) and _close(merged["c"], 3.5), f"merged {merged}")


def check_worker_delta_capture() -> None:
    import layers
    from repro.obs.snapshot import merge_worker_delta

    recorder = layers.BenchRecorder()
    delta = {
        "counters": {"engine.attempts": 1},
        "gauges": {},
        "spans": {"sweep_row/trees.build_tree": {"count": 2, "total_seconds": 0.5}},
        "kernel_totals": {},
    }
    merge_worker_delta(recorder, delta, worker=1)
    merge_worker_delta(recorder, delta, worker=2)
    expect(
        list(recorder.worker_spans["sweep_row/trees.build_tree"]) == [4, 1.0],
        f"worker spans {dict(recorder.worker_spans)}",
    )
    expect(recorder.counters["engine.attempts"] == 2, "worker counters merge")


def check_reentrant_wrapper() -> None:
    import layers
    from repro.obs.recorder import use_recorder

    calls = []

    def inner(depth: int) -> int:
        calls.append(depth)
        return wrapped(depth - 1) if depth else 0

    wrapped = layers._span_wrapper("x", inner)
    recorder = layers.BenchRecorder()
    with use_recorder(recorder):
        wrapped(3)
    expect(calls == [3, 2, 1, 0], f"calls {calls}")
    expect(recorder.spans["x"].count == 1, "a layer calling itself counts once")


def run() -> None:
    check_self_times()
    check_worker_delta_capture()
    check_reentrant_wrapper()


if __name__ == "__main__":
    run()
    print("perfbench self-test: ok")
