"""The parallel sweep and the pool map underneath it.

``parallel_guarantee_sweep`` fans its tasks out through
:func:`repro.robustness.run_tasks`; ``TestParallelMap`` pins the map
contract the sweep relies on (order, exactness, the single-worker path,
each task run exactly once).  The executor's retries, timeouts and crash
recovery are tested in ``tests/robustness/test_engine.py``.
"""

import os
from fractions import Fraction

import pytest

from repro.attack import (
    build_ca2,
    guarantee_sweep,
    parallel_guarantee_sweep,
    sweep_row_of,
    sweep_tasks,
)
from repro.errors import RetryExhaustedError
from repro.robustness import RetryPolicy, run_tasks

ONE_ATTEMPT = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


def _square(value: int) -> int:
    return value * value


def _fraction_half(value: int) -> Fraction:
    return Fraction(value, 2)


def _pid(_value) -> int:
    return os.getpid()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.handle = lambda: None


def _raise_unpicklable(item):
    raise _Unpicklable()


class _LoadsPoisoned(Exception):
    """Pickles fine, but unpickling calls ``__init__`` with too few args."""

    def __init__(self, message, detail):
        super().__init__(message)  # args == (message,): loads() TypeErrors
        self.detail = detail


def _log_then_maybe_poison(item):
    log_path, label = item
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(label + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    if label == "boom":
        raise _LoadsPoisoned("dumps fine, loads raises", "detail")
    return label


class TestParallelMap:
    def test_preserves_input_order(self):
        assert run_tasks(_square, [3, 1, 2], max_workers=2) == [9, 1, 4]

    def test_exact_fractions_cross_the_process_boundary(self):
        results = run_tasks(_fraction_half, [1, 2, 3], max_workers=2)
        assert results == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        assert all(type(value) is Fraction for value in results)

    def test_serial_when_single_worker(self):
        assert run_tasks(_square, [1, 2, 3], max_workers=1) == [1, 4, 9]
        # max_workers=1 never starts a pool: every task runs in this process.
        assert run_tasks(_pid, [1, 2, 3], max_workers=1) == [os.getpid()] * 3

    def test_empty_and_singleton(self):
        assert run_tasks(_square, []) == []
        assert run_tasks(_square, [5]) == [25]

    def test_rejects_nonpositive_workers(self):
        for workers in (0, -1):
            with pytest.raises(ValueError):
                run_tasks(_square, [1], max_workers=workers)

    def test_unpicklable_task_error_surfaces_as_worker_task_error(self):
        # The error itself cannot cross the process boundary; its
        # traceback summary still must, attributed to the failing task.
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_raise_unpicklable, [1, 2], max_workers=2, policy=ONE_ATTEMPT)
        error = excinfo.value
        assert error.task_index == 0
        assert [attempt.outcome for attempt in error.attempts] == ["raised"]
        assert "_Unpicklable" in error.attempts[0].error

    def test_loads_poisoned_task_error_no_serial_rerun(self, tmp_path):
        # Regression: an exception that pickles but fails to UNpickle
        # blows up during result deserialization in the parent, breaking
        # the whole pool -- which used to be misread as infrastructure
        # and trigger a serial re-run of every task.  The worker must
        # verify the full pickle round-trip and ship the text summary, so
        # under a one-attempt policy each task executes exactly once.
        # "boom" goes last, so "a" and "b" are harvested before it raises.
        log_path = str(tmp_path / "executions.log")
        items = [(log_path, "a"), (log_path, "b"), (log_path, "boom")]
        with pytest.raises(RetryExhaustedError) as excinfo:
            run_tasks(_log_then_maybe_poison, items, max_workers=2, policy=ONE_ATTEMPT)
        assert excinfo.value.task_index == 2
        assert "_LoadsPoisoned" in excinfo.value.attempts[0].error
        with open(log_path, "r", encoding="utf-8") as handle:
            executions = handle.read().split()
        assert sorted(executions) == ["a", "b", "boom"], (
            "each task must execute exactly once; duplicates mean the "
            "runner fell back to a serial re-run"
        )


class TestParallelSweep:
    def test_rows_match_serial_sweep_exactly(self):
        counts, losses = [1, 2], [Fraction(1, 2)]
        assert parallel_guarantee_sweep(counts, losses) == guarantee_sweep(
            counts, losses
        )

    def test_task_enumeration_is_deterministic(self):
        first = sweep_tasks([1, 2], [Fraction(1, 2), Fraction(1, 4)])
        second = sweep_tasks([1, 2], [Fraction(1, 2), Fraction(1, 4)])
        assert first == second
        assert [task[:1] + task[2:] for task in first] == [
            ("CA1", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA1", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA1", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA1", 2, Fraction(1, 4), Fraction(99, 100)),
            ("CA2", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA2", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA2", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA2", 2, Fraction(1, 4), Fraction(99, 100)),
            ("CA1-adaptive", 1, Fraction(1, 2), Fraction(99, 100)),
            ("CA1-adaptive", 1, Fraction(1, 4), Fraction(99, 100)),
            ("CA1-adaptive", 2, Fraction(1, 2), Fraction(99, 100)),
            ("CA1-adaptive", 2, Fraction(1, 4), Fraction(99, 100)),
        ]

    def test_sweep_row_of_matches_serial_row(self):
        tasks = sweep_tasks([2], [Fraction(1, 2)], builders={"CA2": build_ca2})
        rows = guarantee_sweep([2], [Fraction(1, 2)], builders={"CA2": build_ca2})
        assert [sweep_row_of(task) for task in tasks] == rows

    def test_custom_builders_respected(self):
        rows = parallel_guarantee_sweep(
            [1], [Fraction(1, 2)], builders={"CA2": build_ca2}
        )
        assert [row.protocol for row in rows] == ["CA2"]
        assert all(type(row.post_threshold) is Fraction for row in rows)
