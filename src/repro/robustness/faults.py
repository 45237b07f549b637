"""Deterministic fault injection for the fault-tolerant sweep engine.

The chaos tests need to *prove* the recovery claims of
:mod:`repro.attack.engine`: that a sweep whose workers are killed,
whose tasks raise, or whose tasks stall still returns rows identical to
the serial sweep.  Random fault injection cannot prove anything
reproducibly, so faults here are **scheduled**: a :class:`FaultPlan`
maps ``(task index, attempt number)`` to a :class:`Fault`, and the
:class:`FaultInjectingTask` wrapper fires exactly the planned fault when
the engine hands it that attempt (via the ``wants_context`` protocol of
:func:`repro.attack.engine.run_tasks`).

Three fault kinds cover the failure modes the engine recovers from:

* ``"raise"`` -- the task raises :class:`InjectedFault` (an ordinary
  task error: consumes an attempt, retried with backoff).
* ``"kill"`` -- the worker process dies via ``os._exit`` (breaks the
  process pool: completed results are harvested, incomplete tasks are
  requeued on a fresh pool).  In-process execution cannot be killed
  without taking the test down, so outside a worker the injector raises
  instead -- same attempt accounting, survivable everywhere.
* ``"delay"`` -- the task sleeps before running (drives the per-task
  timeout path when the delay exceeds it).

Everything here is picklable by construction (frozen dataclasses of
plain data), so plans cross process boundaries intact.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "Fault",
    "FaultInjectingTask",
    "FaultPlan",
    "InjectedFault",
]

_KINDS = ("raise", "kill", "delay")


class InjectedFault(ReproError):
    """The error raised by a scheduled ``"raise"`` fault (and by ``"kill"``
    faults when no worker process is available to kill).

    Deliberately a :class:`ReproError` subclass so injected failures are
    attributable in attempt logs and never masquerade as genuine bugs.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: what to do, and how long to stall first."""

    kind: str
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.delay < 0:
            raise ValueError("fault delay must be nonnegative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule: ``(task index, attempt) -> Fault``.

    The plan is pure data -- two runs with the same plan inject the same
    faults at the same attempts, which is what lets the chaos tests
    assert exact row equality with the serial sweep.
    """

    schedule: Mapping[Tuple[int, int], Fault] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", dict(self.schedule))

    def fault_for(self, index: int, attempt: int) -> Optional[Fault]:
        """The fault scheduled for this attempt, if any."""
        return self.schedule.get((index, attempt))

    def __len__(self) -> int:
        return len(self.schedule)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        task_count: int,
        kinds: Sequence[str] = ("raise", "kill"),
        rate: float = 0.5,
        max_faulty_attempts: int = 2,
        delay: float = 0.0,
    ) -> "FaultPlan":
        """A pseudo-random but reproducible plan over ``task_count`` tasks.

        Each task independently suffers faults on its first
        ``0..max_faulty_attempts`` attempts with probability ``rate`` per
        attempt, drawn from a :class:`random.Random` seeded with ``seed``
        -- so the "chaos" is replayable bit-for-bit.  Faults only ever
        target early attempts, which keeps every task completable under a
        retry policy allowing ``max_faulty_attempts + 1`` attempts.
        """
        generator = random.Random(seed)
        schedule: Dict[Tuple[int, int], Fault] = {}
        for index in range(task_count):
            for attempt in range(max_faulty_attempts):
                if generator.random() < rate:
                    kind = generator.choice(list(kinds))
                    schedule[(index, attempt)] = Fault(kind=kind, delay=delay)
                else:
                    break
        return cls(schedule=schedule)


@dataclass(frozen=True)
class FaultInjectingTask:
    """Wrap a task function so scheduled faults fire before it runs.

    The engine sees ``wants_context`` and calls the wrapper with a
    :class:`~repro.attack.engine.TaskContext`, which keys the plan
    lookup.  The wrapped ``inner`` function itself is called plainly
    (``inner(task)``), so any picklable task function can be chaos-tested
    unmodified.
    """

    inner: Callable
    plan: FaultPlan

    wants_context: ClassVar[bool] = True

    def __call__(self, task, context):
        fault = self.plan.fault_for(context.index, context.attempt)
        if fault is not None:
            if fault.delay > 0:
                time.sleep(fault.delay)
            if fault.kind == "kill":
                if multiprocessing.parent_process() is not None:
                    os._exit(1)
                raise InjectedFault(
                    f"scheduled kill for task {context.index} attempt "
                    f"{context.attempt} (no worker process to kill)"
                )
            if fault.kind == "raise":
                raise InjectedFault(
                    f"scheduled failure for task {context.index} attempt {context.attempt}"
                )
        return self.inner(task)
