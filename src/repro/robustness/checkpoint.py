"""Checkpoint/resume for the Proposition 11 guarantee sweeps.

A long sweep should survive being killed: every completed row streams to
an append-only JSONL checkpoint the moment it is computed, and a resumed
run loads the file, skips the finished tasks, and still returns the full
row list in the deterministic serial order.  Rows stay **exact** on
disk: every :class:`fractions.Fraction` is encoded as its ``"p/q"``
string via :func:`repro.reporting.json_ready` and decoded back with
:func:`repro.reporting.fraction_from_json`, so a resumed sweep is
bit-for-bit identical to an uninterrupted one.

Each record also carries its task's *fingerprint* -- the sweep
coordinates (protocol, messengers, loss, epsilon) of Section 8 --
and resuming against a task list whose fingerprints disagree raises
:class:`~repro.errors.CheckpointError` instead of silently splicing rows
from two different sweeps.

The checkpoint is a record log (:mod:`repro.obs.jsonl`): a process
killed mid-write leaves a torn final line, which loading drops (its task
re-runs) and the first append of a resumed run cuts away, while earlier
garbage and any *well-formed but wrong* record stay hard errors.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from ..attack.sweep import (
    Builder,
    SweepRow,
    SweepTask,
    row_provenance_derivation,
    sweep_row_from_attack,
    sweep_row_of,
    sweep_tasks,
    task_fingerprint,
)
from ..errors import CheckpointError
from ..obs.audit import AuditBundleWriter
from ..obs.jsonl import append_record, read_records, repair
from ..probability.bitset import get_default_backend, use_backend
from ..probability.fractionutil import FractionLike
from ..reporting import fraction_from_json, json_ready
from .engine import RetryPolicy, run_tasks
from .validate import validate_system

__all__ = [
    "SweepCheckpoint",
    "default_audit_path",
    "resume_guarantee_sweep",
    "robust_guarantee_sweep",
    "row_from_record",
    "row_to_record",
    "strict_sweep_row_of",
    "task_fingerprint",
]


def _identity_fingerprint(fingerprint: Dict[str, object]) -> Dict[str, object]:
    """A fingerprint's identity fields: everything except ``backend``."""
    return {key: value for key, value in fingerprint.items() if key != "backend"}


def row_to_record(index: int, task: SweepTask, row: SweepRow) -> Dict[str, object]:
    """One checkpoint record: task position, fingerprint, and exact row.

    Exact. Every probability in the record is a Fraction string;
    round-tripping through :func:`row_from_record` is lossless.
    """
    return {
        "index": index,
        "task": task_fingerprint(task),
        "row": json_ready(row),
    }


def row_from_record(record: Dict[str, object]) -> SweepRow:
    """Rebuild the exact :class:`SweepRow` a record encodes.

    Exact. The inverse of :func:`row_to_record`: Fraction strings come
    back as the same Fractions, bit for bit.
    """
    row = record["row"]
    return SweepRow(
        protocol=row["protocol"],
        messengers=int(row["messengers"]),
        loss=fraction_from_json(row["loss"]),
        run_level=fraction_from_json(row["run_level"]),
        post_threshold=fraction_from_json(row["post_threshold"]),
        achieves_99_post=bool(row["achieves_99_post"]),
    )


class SweepCheckpoint:
    """An append-only JSONL checkpoint of completed sweep rows.

    ``append`` writes one record per completed task and fsyncs, so a
    kill at any instant loses at most the row being written -- and only
    as a torn final line, which ``load`` drops and the first ``append``
    of the next run cuts away.  ``load`` returns the completed
    ``index -> SweepRow`` table after verifying every record's
    fingerprint against the resuming task list.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._repaired = False

    def append(self, index: int, task: SweepTask, row: SweepRow) -> None:
        """Durably record one completed row."""
        if not self._repaired:
            repair(self.path, CheckpointError, "checkpoint")
            self._repaired = True
        append_record(self.path, row_to_record(index, task, row))

    def load(self, tasks: Sequence[SweepTask]) -> Dict[int, SweepRow]:
        """The completed rows on disk, keyed by task index.

        A missing file means a fresh sweep (empty table).  A torn final
        line is the half-written tail of a killed run and is skipped --
        its task simply re-runs.  Garbage before the final line, or a
        record that names an out-of-range index or a fingerprint
        different from ``tasks``, raises :class:`CheckpointError`: the
        file is corrupt, or belongs to a different sweep.
        """
        try:
            records = read_records(self.path, CheckpointError, "checkpoint")
        except FileNotFoundError:
            return {}
        completed: Dict[int, SweepRow] = {}
        for position, record in enumerate(records, 1):
            try:
                index = int(record["index"])
                fingerprint = record["task"]
                row = row_from_record(record)
            except (KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"checkpoint record {position} is malformed: {error}"
                ) from error
            if not 0 <= index < len(tasks):
                raise CheckpointError(
                    f"checkpoint record {position} names task {index}, but the "
                    f"sweep has {len(tasks)} tasks"
                )
            expected = task_fingerprint(tasks[index])
            if _identity_fingerprint(fingerprint) != _identity_fingerprint(expected):
                raise CheckpointError(
                    f"checkpoint record {position} was computed for "
                    f"{fingerprint!r}, but task {index} of this sweep is "
                    f"{expected!r}; refusing to splice rows from different sweeps"
                )
            completed[index] = row
        return completed


class _BackendBoundTask:
    """A task function bound to run under a fixed measure backend.

    Worker processes start with the module default backend
    (``"bitmask"``), so the engine's task callable must carry the
    caller's choice across the process boundary itself.  A class rather
    than ``functools.partial`` because the engine's ``wants_context``
    protocol is an attribute probe on the callable -- a partial would
    hide the wrapped function's opt-in and silently drop the
    :class:`~repro.robustness.engine.TaskContext` argument.  Instances
    pickle by value (function by reference, backend as a string).
    """

    __slots__ = ("function", "backend")

    def __init__(self, function: Callable, backend: str) -> None:
        self.function = function
        self.backend = backend

    @property
    def wants_context(self) -> bool:
        return bool(getattr(self.function, "wants_context", False))

    def __call__(self, task, *args, **kwargs):
        with use_backend(self.backend):
            return self.function(task, *args, **kwargs)


def strict_sweep_row_of(task: SweepTask) -> SweepRow:
    """:func:`~repro.attack.sweep.sweep_row_of` with invariant validation.

    Builds the attack system, runs
    :func:`repro.robustness.validate.validate_system` on it (raising
    :class:`~repro.errors.ValidationError` with every violation if the
    Section 3-5 invariants fail), then computes the row from the
    already-built system.  Module-level so it ships to worker processes.
    """
    _name, builder, messengers, loss, _epsilon = task
    attack = builder(messengers, loss)
    validate_system(attack.psys).raise_if_failed()
    return sweep_row_from_attack(task, attack)


def default_audit_path(checkpoint_path) -> str:
    """Where a sweep's audit bundle lives when the caller names only the
    checkpoint: right alongside it, with an ``.audit`` suffix."""
    return os.fspath(checkpoint_path) + ".audit"


def _audit_append(
    writer: AuditBundleWriter, index: int, task: SweepTask, row: SweepRow
) -> None:
    """Chain one completed row into the sweep's audit bundle.

    Rebuilds the task's attack system in the parent process and
    re-derives its ``post_threshold`` at the witness point
    (:func:`repro.attack.sweep.row_provenance_derivation` -- the
    Section 5 inner-measure evidence behind the Section 8 row), then
    appends the Merkle leaf over (task fingerprint, exact row payload,
    derivation root fingerprint, index).  Rebuilding is deliberate: the
    derivation must come from the *parent's* deterministic replay, not
    from trusting whatever a (possibly remote, possibly faulty) worker
    claims -- that is what makes the bundle evidence.  The rebuild cost
    is why ``audit`` defaults off; ``BENCH_10.json`` pins the overhead.
    """
    _name, builder, messengers, loss, _epsilon = task
    attack = builder(messengers, loss)
    derivation = row_provenance_derivation(attack)
    writer.append(index, task_fingerprint(task), json_ready(row), derivation)


def robust_guarantee_sweep(
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    checkpoint_path=None,
    strict: bool = False,
    task_function: Optional[Callable[[SweepTask], SweepRow]] = None,
    sleep=None,
    backend: Optional[str] = None,
    progress_every: Optional[int] = None,
    audit: bool = False,
    audit_path=None,
) -> List[SweepRow]:
    """The guarantee sweep of Section 8 on the fault-tolerant engine.

    Row-for-row identical to :func:`repro.attack.sweep.guarantee_sweep`
    (same task enumeration, same order, same exact Fractions), with
    bounded retries, worker-crash recovery and per-task ``timeout`` from
    :func:`repro.robustness.engine.run_tasks`.  With ``checkpoint_path``
    every completed row streams to a JSONL checkpoint and previously
    completed rows are loaded and skipped; ``strict=True`` validates
    every built system against the paper's structural invariants before
    measuring it.  ``task_function`` overrides the per-task callable
    (the chaos tests inject faults through it); ``sleep`` overrides the
    backoff sleeper.  ``backend`` runs every task -- in workers too,
    where the process default would otherwise apply -- under the named
    measure engine (``None``: the caller's process default); rows are
    backend-independent, so checkpoints resume across backends.
    ``progress_every`` emits a ``sweep_progress`` event every that many
    completed rows (see :func:`repro.robustness.engine.run_tasks`);
    pair it with a :class:`~repro.obs.trace.TraceRecorder` and tail the
    file with ``tools/reprotop`` for a live sweep monitor.

    ``audit=True`` (opt-in, default off; implied by an explicit
    ``audit_path``) additionally chains every completed row into a
    ``repro-audit/1`` Merkle bundle written alongside the checkpoint
    (``audit_path``, default ``<checkpoint>.audit``): each leaf binds
    the task fingerprint, the exact row payload, and the row's
    parent-recomputed threshold-derivation root, so
    ``tools/verifyaudit`` can certify the sweep -- including one that
    was chaos-killed and resumed -- without recomputing it.  Resuming
    continues the existing chain and *backfills* leaves for checkpoint
    rows whose audit records were lost to a torn tail, so bundle and
    checkpoint always end the run covering the same rows.  Auditing
    requires a ``checkpoint_path`` (the bundle cross-checks it) and
    never changes the returned rows.
    """
    tasks = sweep_tasks(messenger_counts, losses, builders, epsilon)
    if audit_path is not None:
        audit = True
    if audit and checkpoint_path is None:
        raise ValueError(
            "audit=True requires checkpoint_path: the audit bundle is "
            "verified against the checkpoint it shadows"
        )
    if audit and audit_path is None:
        audit_path = default_audit_path(checkpoint_path)
    if task_function is None:
        task_function = strict_sweep_row_of if strict else sweep_row_of
    active = backend if backend is not None else get_default_backend()
    if backend is not None or active != "bitmask":
        # The default-on-default case stays unwrapped so the engine sees
        # the exact callables the chaos tests fingerprint.
        task_function = _BackendBoundTask(task_function, active)
    checkpoint = SweepCheckpoint(checkpoint_path) if checkpoint_path is not None else None
    keywords = {}
    if sleep is not None:
        keywords["sleep"] = sleep
    with ExitStack() as stack:
        if backend is not None:
            # Activate the engine in the parent too, so the fingerprints
            # streamed by on_result record the backend that actually
            # computed the rows (provenance), not the ambient default.
            stack.enter_context(use_backend(backend))
        completed = checkpoint.load(tasks) if checkpoint is not None else {}
        writer = None
        if audit:
            writer = AuditBundleWriter(audit_path)
            # Backfill: a kill can land between the checkpoint append and
            # the audit append, leaving a row the resumed engine will not
            # re-run (the checkpoint has it) but the chain never saw.
            for index in sorted(set(completed) - set(writer.leaf_indexes())):
                _audit_append(writer, index, tasks[index], completed[index])
        on_result = None
        if checkpoint is not None:
            def on_result(index: int, row: SweepRow) -> None:
                checkpoint.append(index, tasks[index], row)
                if writer is not None:
                    _audit_append(writer, index, tasks[index], row)
        return run_tasks(
            task_function,
            tasks,
            max_workers=max_workers,
            policy=policy,
            timeout=timeout,
            completed=completed,
            on_result=on_result,
            progress_every=progress_every,
            **keywords,
        )


def resume_guarantee_sweep(
    checkpoint_path,
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    strict: bool = False,
    task_function: Optional[Callable[[SweepTask], SweepRow]] = None,
    sleep=None,
    backend: Optional[str] = None,
    progress_every: Optional[int] = None,
    audit: bool = False,
    audit_path=None,
) -> List[SweepRow]:
    """Resume a checkpointed sweep, re-running only its incomplete tasks.

    A convenience spelling of :func:`robust_guarantee_sweep` with a
    mandatory checkpoint: rows already in the JSONL file (fingerprints
    verified against this sweep's task list, Section 8 coordinates) are
    returned verbatim in their deterministic positions, never re-run.
    The checkpoint's recorded backend is provenance only -- resuming
    under a different ``backend`` is sound because rows are exact
    Fractions on every engine.  ``audit=True`` resumes (or starts) the
    sweep's ``repro-audit/1`` Merkle bundle as well, backfilling any
    leaves a kill tore away; see :func:`robust_guarantee_sweep`.
    """
    return robust_guarantee_sweep(
        messenger_counts,
        losses,
        builders=builders,
        epsilon=epsilon,
        max_workers=max_workers,
        policy=policy,
        timeout=timeout,
        checkpoint_path=checkpoint_path,
        strict=strict,
        task_function=task_function,
        sleep=sleep,
        backend=backend,
        progress_every=progress_every,
        audit=audit,
        audit_path=audit_path,
    )
