"""The measure backend through the sweeps: rows are backend-independent.

``sweep_row_of``/``guarantee_sweep``/``parallel_guarantee_sweep`` run
under the caller's ``use_backend`` choice -- including inside worker
processes, because the engine ships the parent's backend with every
task.  Whatever the engine, every row must come out as the identical
exact Fractions.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.attack.parallel import parallel_guarantee_sweep
from repro.attack.sweep import guarantee_sweep, sweep_row_of, sweep_tasks
from repro.probability import (
    get_default_backend,
    use_backend,
    wordmask,
)

SRC = Path(__file__).resolve().parents[2] / "src"

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]

BACKENDS = ("bitmask", "naive") + (
    ("wordarray",) if wordmask.available() else ()
)


@pytest.fixture(scope="module")
def reference_rows():
    return guarantee_sweep(MESSENGERS, LOSSES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_row_of_backend_argument(backend, reference_rows):
    tasks = sweep_tasks(MESSENGERS, LOSSES)
    with use_backend(backend):
        rows = [sweep_row_of(task) for task in tasks]
    assert rows == reference_rows
    # the backend is scoped to the block, not leaked
    assert get_default_backend() == "bitmask"


@pytest.mark.parametrize("backend", BACKENDS)
def test_guarantee_sweep_backend_argument(backend, reference_rows):
    with use_backend(backend):
        rows = guarantee_sweep(MESSENGERS, LOSSES)
    assert rows == reference_rows
    assert get_default_backend() == "bitmask"


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_rows_match_serial_under_backend(backend, reference_rows):
    with use_backend(backend):
        rows = parallel_guarantee_sweep(MESSENGERS, LOSSES, max_workers=2)
    assert rows == reference_rows
    assert get_default_backend() == "bitmask"


def test_parallel_inherits_ambient_backend(reference_rows):
    # the parent's context-manager default is resolved in the parent and
    # shipped to the workers
    for backend in BACKENDS:
        with use_backend(backend):
            rows = parallel_guarantee_sweep(MESSENGERS, LOSSES, max_workers=2)
        assert rows == reference_rows


def test_sweep_row_provenance_survives_backend_wrapper():
    task = sweep_tasks([1], LOSSES)[0]
    plain = sweep_row_of(task, provenance=True)
    for backend in BACKENDS:
        with use_backend(backend):
            routed = sweep_row_of(task, provenance=True)
        assert routed == plain


_SPAWN_PROBE = """
import json
import multiprocessing
import os

from repro.attack.engine import run_tasks
from repro.probability import get_default_backend, use_backend


def backend_and_pid(_task):
    return get_default_backend(), os.getpid()


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    with use_backend("naive"):
        outcomes = run_tasks(backend_and_pid, range(4), max_workers=2)
    print(json.dumps({"pid": os.getpid(), "outcomes": outcomes}))
"""


def test_spawned_workers_run_under_parent_backend(tmp_path):
    # A forked worker inherits the parent's backend whether or not the
    # engine ships it; spawned workers start fresh interpreters on the
    # module default, so only the engine's hand-off puts them on "naive".
    script = tmp_path / "spawn_probe.py"
    script.write_text(_SPAWN_PROBE)
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    report = json.loads(result.stdout)
    assert [backend for backend, _pid in report["outcomes"]] == ["naive"] * 4
    # every task ran in a worker, not through the in-process fallback
    assert report["pid"] not in {pid for _backend, pid in report["outcomes"]}
