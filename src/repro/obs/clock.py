"""The wall-clock quarantine: the only clock readers in ``src/repro``.

Results in this reproduction are deterministic functions of their inputs
-- the paper's systems are generated by adversary choices, not by time
-- so reading a wall clock anywhere near result-producing code is a
latent nondeterminism bug.  reprolint rule RL008 statically forbids
``time.time`` / ``time.perf_counter`` / ``time.monotonic`` /
``datetime.now`` everywhere in ``src/repro`` *except* this subpackage;
code that legitimately needs durations (span timing here, the timeout
bookkeeping of :mod:`repro.attack.engine`) imports these wrappers so
every clock read in the library is greppable in one place.

Clock readings only ever flow into observability artifacts (trace
timestamps, span durations) and control decisions that never change a
computed value (timeout detection, which costs an attempt but re-runs
the identical pure task).
"""

from __future__ import annotations

import time as _time

__all__ = ["monotonic", "perf_counter"]

#: High-resolution timer for span durations and benchmark timings.
perf_counter = _time.perf_counter

#: Monotonic timer for timeout bookkeeping (never jumps backwards).
monotonic = _time.monotonic
