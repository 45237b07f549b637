"""Point-in-time metrics snapshots: schema ``repro-metrics/1``.

The trace layer (:mod:`repro.obs.trace`) records *how* a run unfolded;
this module records *where its aggregates stand right now*, in a form
that survives process boundaries.  A snapshot freezes the counters,
gauges and span statistics of a :class:`~repro.obs.metrics.MetricsRecorder`
together with the process-wide measure-kernel totals of
:func:`repro.probability.bitset.kernel_totals`, and two snapshots
subtract (:func:`snapshot_delta`) into a shippable, picklable delta.
That delta is what the fault-tolerant engine's workers return inside
their task envelopes, and what the parent folds back into its own
recorder (:func:`merge_worker_delta`) with per-worker pid attribution --
so ``kernel_totals()`` in the parent reflects the whole sweep, not just
parent-side work.

Schema ``repro-metrics/1``
--------------------------

A metrics artifact is a record log (:mod:`repro.obs.jsonl`), mirroring
``repro-trace/1``.  The first record is always the header::

    {"seq": 0, "ts": 0.0, "pid": <int>, "type": "header",
     "schema": "repro-metrics/1"}

followed by any number of ``snapshot`` records::

    {"type": "snapshot", "seq": <int>, "ts": <float>, "pid": <int>,
     "label": <str>,
     "counters": {<name>: <int>, ...},
     "gauges": {<name>: <json_ready value>, ...},
     "spans": {<path>: {"count": ..., "total_seconds": ..., ...}, ...},
     "kernel_totals": {"cache_hits": <int>, ...},
     "cache": {"hits": ..., "misses": ..., "evictions": ...,
               "hit_rate": "p/q" | null},
     "gfp": {"fixpoints": <int>, "iterations": <int>}}

Values are encoded with :func:`repro.reporting.json_ready`: an exact
:class:`fractions.Fraction` gauge (and the derived cache hit rate) is
written as its ``"p/q"`` string, never a float.  The content-vs-timing
split of ``tools/tracediff`` applies field-wise: ``seq``/``ts``/``pid``
and the span seconds are timing, everything else is deterministic
content.

Like the rest of the observability layer this is one-way glass: nothing
here returns a value that instrumented code could branch on, and a run
that ships snapshots computes byte-identical results to one that does
not.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Dict, List, Optional

from ..errors import MetricsError
from ..reporting import json_ready
from .clock import perf_counter
from .jsonl import header_problem, read_records
from .metrics import MetricsRecorder
from .recorder import Recorder, set_recorder

__all__ = [
    "METRICS_SCHEMA",
    "MetricsSnapshotWriter",
    "ObsDeltaCapture",
    "merge_worker_delta",
    "read_snapshot",
    "read_snapshots",
    "snapshot_delta",
    "take_snapshot",
    "write_snapshot",
]

#: Identifier written into (and demanded from) every metrics header.
METRICS_SCHEMA = "repro-metrics/1"

#: Counter names holding the gfp totals a snapshot surfaces explicitly
#: (``repro.logic.semantics`` bumps them once per fixpoint).
_GFP_FIXPOINTS = "model.gfp_fixpoints"
_GFP_ITERATIONS = "model.gfp_iterations"


def _kernel_totals() -> Dict[str, int]:
    # Deferred: repro.probability.bitset imports repro.obs.recorder at
    # module scope, so importing it here at module scope would cycle
    # through the package initialisers.
    from ..probability.bitset import kernel_totals

    return kernel_totals()


def _cache_section(kernel: Dict[str, int]) -> Dict[str, object]:
    hits = int(kernel.get("cache_hits", 0))
    misses = int(kernel.get("cache_misses", 0))
    return {
        "hits": hits,
        "misses": misses,
        "evictions": int(kernel.get("cache_evictions", 0)),
        "hit_rate": Fraction(hits, hits + misses) if hits + misses else None,
    }


def take_snapshot(
    metrics: Optional[MetricsRecorder] = None,
    label: str = "",
    kernel: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Freeze the current aggregates into one ``snapshot`` record.

    ``metrics`` supplies the counters/gauges/spans (``None``: empty
    aggregates -- the snapshot still carries the kernel totals);
    ``kernel`` overrides the process-wide :func:`kernel_totals` (the
    delta helpers pass differences through here).  The derived ``cache``
    and ``gfp`` sections are conveniences folded from the same numbers:
    the cache hit rate is an exact Fraction, and the gfp totals mirror
    the ``model.gfp_*`` counters.
    """
    base = metrics.snapshot() if metrics is not None else {
        "counters": {},
        "gauges": {},
        "spans": {},
    }
    totals = dict(kernel) if kernel is not None else _kernel_totals()
    counters = base["counters"]
    return {
        "type": "snapshot",
        "label": label,
        "counters": counters,
        "gauges": base["gauges"],
        "spans": base["spans"],
        "kernel_totals": totals,
        "cache": _cache_section(totals),
        "gfp": {
            "fixpoints": int(counters.get(_GFP_FIXPOINTS, 0)),
            "iterations": int(counters.get(_GFP_ITERATIONS, 0)),
        },
    }


class MetricsSnapshotWriter:
    """Stream ``repro-metrics/1`` records, one JSON object per line.

    ``destination`` is a path (the file is created/truncated and owned
    by the writer -- :meth:`close` closes it) or any object with a
    ``write(str)`` method (borrowed -- :meth:`close` only flushes).  The
    header is written immediately; each :meth:`write` stamps the record
    with ``seq``/``ts``/``pid`` and flushes, so a killed run leaves at
    most a truncated final line (which :func:`read_snapshots`
    tolerates).
    """

    __slots__ = ("_handle", "_owns_handle", "_origin", "_seq", "records_written")

    def __init__(self, destination) -> None:
        if hasattr(destination, "write"):
            self._handle = destination
            self._owns_handle = False
        else:
            self._handle = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        self._seq = 0
        #: Total records emitted, header included (monotonic).
        self.records_written = 0
        self._origin = perf_counter()
        self._emit({"type": "header", "schema": METRICS_SCHEMA})

    def _emit(self, record: Dict) -> None:
        record["seq"] = self._seq
        record["ts"] = round(perf_counter() - self._origin, 9)
        record["pid"] = os.getpid()
        self._seq += 1
        self.records_written += 1
        self._handle.write(json.dumps(json_ready(record), sort_keys=True) + "\n")
        flush = getattr(self._handle, "flush", None)
        if flush is not None:
            flush()

    def write(self, snapshot: Dict[str, object]) -> None:
        """Append one :func:`take_snapshot` record to the stream."""
        self._emit(dict(snapshot))

    def close(self) -> None:
        if self._owns_handle:
            if not self._handle.closed:
                self._handle.close()
        else:
            flush = getattr(self._handle, "flush", None)
            if flush is not None:
                flush()

    def __enter__(self) -> "MetricsSnapshotWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


def write_snapshot(
    destination,
    metrics: Optional[MetricsRecorder] = None,
    label: str = "",
) -> Dict[str, object]:
    """Write a one-snapshot ``repro-metrics/1`` artifact; returns the record."""
    snapshot = take_snapshot(metrics, label=label)
    with MetricsSnapshotWriter(destination) as writer:
        writer.write(snapshot)
    return snapshot


def read_snapshots(source, strict: bool = True) -> List[Dict]:
    """Load the records of a ``repro-metrics/1`` JSONL file (or lines).

    Torn tails and corruption follow the shared record-log rule of
    :mod:`repro.obs.jsonl` (a torn final line is dropped, earlier
    garbage raises :class:`~repro.errors.MetricsError`).  With
    ``strict=True`` the first record must be a ``repro-metrics/1`` header.
    """
    records = read_records(source, MetricsError, "metrics")
    problem = header_problem(records, METRICS_SCHEMA) if strict else None
    if problem:
        raise MetricsError(f"metrics artifact {problem}")
    return records


def read_snapshot(source, strict: bool = True) -> Dict:
    """The last ``snapshot`` record of a metrics artifact.

    A metrics file is a point-in-time series; the final snapshot is the
    state of the run when it was last written, which is what reports
    fold.  Raises :class:`~repro.errors.MetricsError` when the artifact
    holds no snapshot at all.
    """
    for record in reversed(read_snapshots(source, strict=strict)):
        if record.get("type") == "snapshot":
            return record
    raise MetricsError("metrics artifact contains no snapshot record")


def _diff_counters(before: Dict, after: Dict) -> Dict[str, int]:
    deltas = {}
    for name in sorted(set(before) | set(after)):
        delta = int(after.get(name, 0)) - int(before.get(name, 0))
        if delta:
            deltas[name] = delta
    return deltas


def snapshot_delta(before: Dict, after: Dict) -> Dict[str, object]:
    """The shippable difference between two snapshots of one process.

    Counters and kernel totals subtract exactly (zero deltas dropped);
    gauges keep the ``after`` value (a gauge is last-value, not a sum);
    spans subtract count and total seconds per path.  The result is
    plain picklable dicts -- the form worker envelopes carry.
    """
    span_deltas: Dict[str, Dict[str, object]] = {}
    spans_before = before.get("spans", {})
    spans_after = after.get("spans", {})
    for path in sorted(set(spans_before) | set(spans_after)):
        entry_before = spans_before.get(path, {})
        entry_after = spans_after.get(path, {})
        count = int(entry_after.get("count", 0)) - int(entry_before.get("count", 0))
        seconds = float(entry_after.get("total_seconds", 0.0)) - float(
            entry_before.get("total_seconds", 0.0)
        )
        if count or seconds:
            span_deltas[path] = {"count": count, "total_seconds": seconds}
    return {
        "counters": _diff_counters(
            before.get("counters", {}), after.get("counters", {})
        ),
        "gauges": dict(after.get("gauges", {})),
        "spans": span_deltas,
        "kernel_totals": _diff_counters(
            before.get("kernel_totals", {}), after.get("kernel_totals", {})
        ),
    }


class ObsDeltaCapture:
    """Capture one block's observations as a shippable delta.

    The worker side of the cross-process shipping: entering installs a
    fresh :class:`MetricsRecorder` process-wide and snapshots the kernel
    totals; exiting restores the previous recorder and leaves ``delta``
    holding exactly what the block contributed (counters, gauges, span
    stats, kernel-total increments) as plain picklable dicts.  The
    capture is exception-transparent -- a raising block still yields its
    partial delta, so failed attempts stay attributable.
    """

    __slots__ = ("delta", "worker", "_metrics", "_kernel_before", "_previous")

    def __init__(self) -> None:
        self.delta: Optional[Dict[str, object]] = None
        self.worker = os.getpid()

    def __enter__(self) -> "ObsDeltaCapture":
        self._metrics = MetricsRecorder()
        self._kernel_before = _kernel_totals()
        self._previous = set_recorder(self._metrics)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        set_recorder(self._previous)
        empty = {"counters": {}, "gauges": {}, "spans": {}, "kernel_totals": {}}
        self.delta = snapshot_delta(
            dict(empty, kernel_totals=self._kernel_before),
            take_snapshot(self._metrics),
        )
        return False


def merge_worker_delta(
    recorder: Recorder,
    delta: Dict[str, object],
    worker: Optional[int] = None,
    **event_fields,
) -> None:
    """Fold a worker's shipped delta into the parent's observations.

    Counters land twice: once under their plain name (so parent totals
    equal the exact sum of every shipped delta) and once under
    ``worker.<pid>.<name>`` (per-worker attribution, which is what the
    ``reprotop`` throughput table reads).  Kernel totals merge into this
    process's :func:`~repro.probability.bitset.kernel_totals` *and*
    into ``worker.<pid>.kernel.<key>`` counters; gauges are recorded
    under the worker prefix only (a worker's last value must not
    overwrite the parent's).  Span timings stay inside the emitted
    ``worker_obs_delta`` event -- they are timing, not content.  Must be
    called exactly once per harvested envelope: the engine reads each
    future at most once, which is what makes retried and killed attempts
    impossible to double-count.
    """
    from ..probability.bitset import merge_kernel_totals

    prefix = f"worker.{worker if worker is not None else 'unknown'}."
    counters = delta.get("counters", {})
    for name in sorted(counters):
        value = int(counters[name])
        recorder.counter(name, value)
        recorder.counter(prefix + name, value)
    kernel = {key: int(value) for key, value in delta.get("kernel_totals", {}).items()}
    merge_kernel_totals(kernel)
    for key in sorted(kernel):
        if kernel[key]:
            recorder.counter(f"{prefix}kernel.{key}", kernel[key])
    gauges = delta.get("gauges", {})
    for name in sorted(gauges):
        recorder.gauge(prefix + name, gauges[name])
    recorder.event(
        "worker_obs_delta",
        worker=worker,
        counters=dict(counters),
        kernel_totals=kernel,
        spans=dict(delta.get("spans", {})),
        **event_fields,
    )
