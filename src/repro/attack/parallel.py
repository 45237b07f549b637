"""Parallel fan-out for the Proposition 11 guarantee sweep.

The sweep is embarrassingly parallel: every protocol/parameter
combination builds its own system and queries it independently, with
exact :class:`fractions.Fraction` results that are cheap to pickle.
:func:`parallel_guarantee_sweep` hands the deterministic serial task
list (:func:`repro.attack.sweep.sweep_tasks`) to the one executor,
:func:`repro.attack.engine.run_tasks`, which returns results in task
order -- so the parallel sweep returns exactly the serial row list --
falls back in-process where process pools are unavailable, and runs
every worker under the parent's measure backend.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..probability.fractionutil import FractionLike
from .engine import run_tasks
from .sweep import Builder, SweepRow, sweep_row_of, sweep_tasks

__all__ = ["parallel_guarantee_sweep"]


def parallel_guarantee_sweep(
    messenger_counts: Sequence[int],
    losses: Sequence[FractionLike],
    builders: Optional[Dict[str, Builder]] = None,
    epsilon: FractionLike = Fraction(99, 100),
    max_workers: Optional[int] = None,
) -> List[SweepRow]:
    """:func:`~repro.attack.sweep.guarantee_sweep`, fanned across processes.

    Row-for-row identical to the serial sweep (same task enumeration, same
    ordering, same exact Fractions); custom ``builders`` must be
    module-level callables so they can be shipped to workers.
    """
    tasks = sweep_tasks(messenger_counts, losses, builders, epsilon)
    return run_tasks(sweep_row_of, tasks, max_workers=max_workers)
