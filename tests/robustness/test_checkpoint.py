"""Checkpoint/resume: exact rows survive kills, truncation, and chaos."""

import json
import os
import shutil
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attack.sweep import SweepRow, guarantee_sweep, sweep_tasks
from repro.errors import CheckpointError, RetryExhaustedError
from repro.reporting import fraction_from_json
from repro.robustness import (
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    resume_guarantee_sweep,
    robust_guarantee_sweep,
    row_from_record,
    row_to_record,
    task_fingerprint,
)
from repro.robustness.faults import FaultInjectingTask, InjectedFault

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

FAST = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)


def _no_sleep(seconds):
    assert seconds >= 0


def _poisoned_ca1_row(task):
    """A task function that refuses to recompute CA1 rows.

    Used to prove resume really skips checkpointed tasks: if the resumed
    sweep ever re-runs a CA1 task, this raises and the test fails.
    """
    from repro.attack.sweep import sweep_row_of

    name = task[0]
    if name == "CA1":
        raise AssertionError("a checkpointed CA1 task was re-run on resume")
    return sweep_row_of(task)


def _serial_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


def _export_artifact(path):
    """Copy a checkpoint into CHAOS_ARTIFACT_DIR for the CI artifact."""
    target_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not target_dir:
        return
    os.makedirs(target_dir, exist_ok=True)
    shutil.copy(path, os.path.join(target_dir, os.path.basename(path)))


class TestRecordRoundTrip:
    @given(
        run_level=st.fractions(min_value=0, max_value=1),
        post_threshold=st.fractions(min_value=0, max_value=1),
        loss=st.fractions(min_value=0, max_value=1),
        messengers=st.integers(min_value=1, max_value=50),
    )
    def test_round_trip_preserves_exact_fractions(
        self, run_level, post_threshold, loss, messengers
    ):
        task = ("CA1", None, messengers, loss, Fraction(99, 100))
        row = SweepRow(
            protocol="CA1",
            messengers=messengers,
            loss=loss,
            run_level=run_level,
            post_threshold=post_threshold,
            achieves_99_post=post_threshold >= Fraction(99, 100),
        )
        record = row_to_record(3, task, row)
        rebuilt = row_from_record(json.loads(json.dumps(record, sort_keys=True)))
        assert rebuilt == row
        assert isinstance(rebuilt.run_level, Fraction)
        assert isinstance(rebuilt.post_threshold, Fraction)
        assert isinstance(rebuilt.loss, Fraction)

    def test_fraction_from_json_rejects_floats(self):
        with pytest.raises(ValueError):
            fraction_from_json(0.5)
        with pytest.raises(ValueError):
            fraction_from_json(True)

    def test_fingerprint_excludes_the_builder(self):
        def builder_a(messengers, loss):
            raise NotImplementedError

        def builder_b(messengers, loss):
            raise NotImplementedError

        one = task_fingerprint(("CA1", builder_a, 2, Fraction(1, 2), Fraction(99, 100)))
        two = task_fingerprint(("CA1", builder_b, 2, Fraction(1, 2), Fraction(99, 100)))
        assert one == two


class TestSweepMatchesSerial:
    def test_fresh_sweep_matches_serial_rows(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS, LOSSES, max_workers=1, checkpoint_path=path
        )
        assert rows == _serial_rows()
        assert path.exists()

    def test_strict_sweep_matches_serial_rows(self):
        rows = robust_guarantee_sweep(MESSENGERS, LOSSES, max_workers=1, strict=True)
        assert rows == _serial_rows()


class TestResume:
    def test_resume_skips_completed_tasks(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        checkpoint = SweepCheckpoint(path)
        # Checkpoint every CA1 row, as if a first run died after them.
        for index, task in enumerate(tasks):
            if task[0] == "CA1":
                checkpoint.append(index, task, serial[index])
        rows = resume_guarantee_sweep(
            path, MESSENGERS, LOSSES, max_workers=1, task_function=_poisoned_ca1_row
        )
        assert rows == serial

    def test_resume_tolerates_a_half_written_tail(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        checkpoint = SweepCheckpoint(path)
        for index in range(3):
            checkpoint.append(index, tasks[index], serial[index])
        # Simulate a kill mid-write: append a truncated record.
        with open(path, "a", encoding="utf-8") as handle:
            full = json.dumps(row_to_record(3, tasks[3], serial[3]))
            handle.write(full[: len(full) // 2])
        assert checkpoint.load(tasks) == {0: serial[0], 1: serial[1], 2: serial[2]}
        rows = resume_guarantee_sweep(path, MESSENGERS, LOSSES, max_workers=1)
        assert rows == serial
        # the resumed rows landed on a record boundary, not fused with
        # the torn fragment, so the next resume has nothing to re-run
        assert checkpoint.load(tasks) == dict(enumerate(serial))

    def test_mid_file_garbage_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        checkpoint = SweepCheckpoint(path)
        for index in range(3):
            checkpoint.append(index, tasks[index], serial[index])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn NON-final line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError, match="line 2"):
            SweepCheckpoint(path).load(tasks)

    def test_missing_file_means_fresh_sweep(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "never-written.jsonl")
        assert checkpoint.load(sweep_tasks(MESSENGERS, LOSSES)) == {}

    def test_fingerprint_mismatch_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        SweepCheckpoint(path).append(0, tasks[0], serial[0])
        other_tasks = sweep_tasks(MESSENGERS, [Fraction(1, 3)])
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(other_tasks)

    def test_out_of_range_index_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        SweepCheckpoint(path).append(len(tasks) + 5, tasks[0], serial[0])
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(tasks)

    def test_malformed_record_is_a_hard_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"index": 0, "task": {}}) + "\n")
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load(sweep_tasks(MESSENGERS, LOSSES))


class TestChaosSweep:
    def test_chaos_sweep_matches_serial_rows(self, tmp_path):
        # Worker kills, raises and the checkpoint all at once: the row
        # list must still be identical to the serial sweep.
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        plan = FaultPlan.from_seed(
            seed=7, task_count=len(tasks), kinds=("raise", "kill"), rate=0.7
        )
        assert plan.schedule, "seed 7 must actually schedule faults"
        path = tmp_path / "chaos.jsonl"
        rows = robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            policy=FAST,
            checkpoint_path=path,
            task_function=_chaos_task,
            sleep=_no_sleep,
        )
        assert rows == _serial_rows()
        _export_artifact(path)

    def test_kill_mid_sweep_then_resume_reproduces_rows(self, tmp_path):
        # Phase 1: a sweep dies on task 2 (every attempt faults).  The
        # checkpoint must hold exactly the rows completed before death.
        tasks = sweep_tasks(MESSENGERS, LOSSES)
        serial = _serial_rows()
        path = tmp_path / "killed.jsonl"
        with pytest.raises(RetryExhaustedError):
            robust_guarantee_sweep(
                MESSENGERS,
                LOSSES,
                max_workers=1,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                checkpoint_path=path,
                task_function=_dies_on_task_2,
                sleep=_no_sleep,
            )
        survived = SweepCheckpoint(path).load(tasks)
        assert survived == {0: serial[0], 1: serial[1]}
        # Phase 2: resume with a healthy task function; only the
        # incomplete tasks run and the full row list comes back.
        rows = resume_guarantee_sweep(path, MESSENGERS, LOSSES, max_workers=1)
        assert rows == serial
        assert SweepCheckpoint(path).load(tasks).keys() == set(range(len(tasks)))
        _export_artifact(path)


def _chaos_task(task, context):
    from repro.attack.sweep import sweep_row_of

    inner = FaultInjectingTask(
        inner=sweep_row_of,
        plan=FaultPlan.from_seed(seed=7, task_count=6, kinds=("raise", "kill"), rate=0.7),
    )
    return inner(task, context)


_chaos_task.wants_context = True


def _dies_on_task_2(task, context):
    from repro.attack.sweep import sweep_row_of

    if context.index == 2:
        raise InjectedFault("simulated mid-sweep death on task 2")
    return sweep_row_of(task)


_dies_on_task_2.wants_context = True
