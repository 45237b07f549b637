"""CI driver: chaos-kill an audited sweep, resume it, verify the bundle.

The acceptance scenario behind the ``verify-audit`` CI job, end to end:

1. Run :func:`repro.robustness.robust_guarantee_sweep` with ``audit=True``
   under a task function that dies mid-sweep (every attempt on one task
   faults), leaving a partial checkpoint and a partial audit bundle.
2. Tear the final record of both the checkpoint and the bundle
   mid-line, as a kill inside ``write`` would, so the resume must cut
   each torn tail before it appends.
3. Resume with :func:`repro.robustness.resume_guarantee_sweep`
   (``audit=True`` again): the engine skips checkpointed rows, backfills
   any audit leaves the kill swallowed, and continues the Merkle chain.
4. Assert the merged rows equal the serial sweep's, then run the full
   ``tools/verifyaudit`` tier stack over the bundle -- hash chain,
   checkpoint cross-check, and derivation replay -- and demand exit 0.

Artifacts (checkpoint, bundle, ``repro-verifyaudit/1`` report) land in
``--artifact-dir`` for the CI upload step; the chain root is printed so
the job log itself witnesses what was certified.  Exit status: 0 when
the resumed bundle verifies clean, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.attack.sweep import guarantee_sweep  # noqa: E402
from repro.errors import RetryExhaustedError  # noqa: E402
from repro.robustness import (  # noqa: E402
    RetryPolicy,
    default_audit_path,
    resume_guarantee_sweep,
    robust_guarantee_sweep,
)
from repro.robustness.faults import InjectedFault  # noqa: E402

from tools.verifyaudit import render_report, verify_audit  # noqa: E402

MESSENGERS = [1, 2]
LOSSES = [Fraction(1, 2)]
KILL_INDEX = 2


def _dies_mid_sweep(task, context):
    from repro.attack.sweep import sweep_row_of

    if context.index == KILL_INDEX:
        raise InjectedFault(f"scheduled chaos death on task {KILL_INDEX}")
    return sweep_row_of(task)


_dies_mid_sweep.wants_context = True


def _tear_final_record(path: Path) -> None:
    """Cut the file's final record in half, dropping its newline."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: start + (len(data) - start) // 2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir",
        default="audit-artifacts",
        help="where the checkpoint, bundle, and report are written",
    )
    args = parser.parse_args(argv)

    artifact_dir = Path(args.artifact_dir)
    artifact_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = artifact_dir / "audited-sweep.jsonl"
    bundle = Path(default_audit_path(checkpoint))
    # a previous run's rows would be resumed and the sweep would not die
    for stale in (checkpoint, bundle):
        stale.unlink(missing_ok=True)

    print(f"phase 1: audited sweep, chaos death on task {KILL_INDEX}")
    try:
        robust_guarantee_sweep(
            MESSENGERS,
            LOSSES,
            max_workers=1,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            checkpoint_path=checkpoint,
            task_function=_dies_mid_sweep,
            sleep=lambda _seconds: None,
            audit=True,
        )
    except RetryExhaustedError as error:
        print(f"  sweep died as scheduled: {error}")
    else:
        print("  ERROR: the chaos sweep was supposed to die", file=sys.stderr)
        return 1

    print("phase 2: tear the final checkpoint and bundle records mid-line")
    for path in (checkpoint, bundle):
        _tear_final_record(path)

    print("phase 3: resume (healthy task function, chain continues)")
    rows = resume_guarantee_sweep(
        checkpoint, MESSENGERS, LOSSES, max_workers=1, audit=True
    )
    if rows != guarantee_sweep(MESSENGERS, LOSSES):
        print("  ERROR: resumed rows differ from serial sweep", file=sys.stderr)
        return 1
    print(f"  {len(rows)} rows, identical to the serial sweep")

    print("phase 4: verifyaudit (hash + checkpoint + replay tiers)")
    report = verify_audit(str(bundle))
    report_path = artifact_dir / "verifyaudit-report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(render_report(report))
    print(f"report: {report_path}")
    print(f"chain root: {report['root']}")
    return 0 if report["verdict"] == "clean" else 1


if __name__ == "__main__":
    sys.exit(main())
