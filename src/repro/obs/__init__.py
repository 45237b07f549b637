"""Deterministic observability: recorders, metrics, and JSONL tracing.

The reproduction's results are exact and deterministic; this subpackage
makes the *computation* of those results inspectable without ever being
able to perturb them.  Instrumented code (the bitmask measure kernels,
the model-checking fixpoints, the fault-tolerant sweep engine) reports
counters, gauges, events and timing spans to the process-global
:func:`get_recorder`, which defaults to the no-op :class:`NullRecorder`.

* :class:`MetricsRecorder` aggregates in memory (cache hit rates, gfp
  iteration counts, retry totals) for benchmark reports.
* :class:`TraceRecorder` streams schema ``repro-trace/1`` JSONL for the
  ``tools/tracereport`` CLI.
* :class:`ProvenanceRecorder` collects semantic provenance -- the
  ``repro-explain/1`` derivation trees built by ``Model.explain`` and the
  gfp iteration snapshots of the common-knowledge fixpoints -- for
  ``tools/tracediff`` and the auditability layer.
* :mod:`repro.obs.derivstore` hash-conses derivation subtrees by their
  Merkle fingerprints into the ``repro-explain/2`` DAG encoding (with a
  lossless bridge to ``repro-explain/1``), and :mod:`repro.obs.audit`
  chains sweep rows and their derivation roots into ``repro-audit/1``
  Merkle-chained audit bundles for ``tools/verifyaudit``.
* :mod:`repro.obs.snapshot` freezes aggregates into ``repro-metrics/1``
  snapshots and ships per-attempt deltas across process boundaries --
  the cross-process telemetry the sweep engine's workers use, so the
  parent's counters cover the whole sweep.
* :mod:`repro.obs.jsonl` is the record log (one torn-tail rule) under
  every JSONL artifact and checkpoint.
* :mod:`repro.obs.clock` quarantines every wall-clock read in the
  library (statically enforced by reprolint RL008).

See ``docs/observability.md`` for the recorder protocol, the trace
schema, and a worked example.
"""

from . import clock
from .audit import (
    AUDIT_SCHEMA,
    AuditBundle,
    AuditBundleWriter,
    bundle_root,
    read_audit_bundle,
    verify_bundle,
)
from .derivstore import (
    EXPLAIN_SCHEMA_2,
    DerivationStore,
    decode_derivation,
    downgrade,
    encode_derivation,
    encoded_size,
    node_fingerprint,
    upgrade,
)
from .metrics import MetricsRecorder, SpanStats
from .provenance import (
    EXPLAIN_SCHEMA,
    Derivation,
    DerivationNode,
    ProvenanceRecorder,
    derivation_from_json,
    read_derivation,
    render_derivation,
    write_derivation,
)
from .recorder import (
    MultiRecorder,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from .snapshot import (
    METRICS_SCHEMA,
    MetricsSnapshotWriter,
    ObsDeltaCapture,
    merge_worker_delta,
    read_snapshot,
    read_snapshots,
    snapshot_delta,
    take_snapshot,
    write_snapshot,
)
from .trace import TRACE_SCHEMA, TraceRecorder, read_trace

__all__ = [
    "AUDIT_SCHEMA",
    "AuditBundle",
    "AuditBundleWriter",
    "Derivation",
    "DerivationNode",
    "DerivationStore",
    "EXPLAIN_SCHEMA",
    "EXPLAIN_SCHEMA_2",
    "METRICS_SCHEMA",
    "MetricsRecorder",
    "MetricsSnapshotWriter",
    "MultiRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsDeltaCapture",
    "ProvenanceRecorder",
    "Recorder",
    "SpanStats",
    "TRACE_SCHEMA",
    "TraceRecorder",
    "bundle_root",
    "clock",
    "decode_derivation",
    "derivation_from_json",
    "downgrade",
    "encode_derivation",
    "encoded_size",
    "get_recorder",
    "node_fingerprint",
    "merge_worker_delta",
    "read_audit_bundle",
    "read_derivation",
    "read_snapshot",
    "read_snapshots",
    "read_trace",
    "render_derivation",
    "set_recorder",
    "snapshot_delta",
    "take_snapshot",
    "upgrade",
    "use_recorder",
    "verify_bundle",
    "write_snapshot",
]
