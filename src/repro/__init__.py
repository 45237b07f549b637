"""repro: an executable reproduction of Halpern & Tuttle,
"Knowledge, Probability, and Adversaries" (PODC 1989 / JACM 40(4), 1993).

The package turns the paper's semantic framework for probabilistic
knowledge in distributed systems into a library:

* :mod:`repro.probability` -- exact finite measure theory (spaces,
  sigma-algebras as atom partitions, inner/outer measures and expectations).
* :mod:`repro.core` -- runs, points, knowledge, facts; sample-space and
  probability assignments; the standard lattice (``post``, ``fut``,
  ``opp(j)``, ``prior``); type-3 cut adversaries.
* :mod:`repro.trees` -- labeled computation trees, one per type-1 adversary.
* :mod:`repro.logic` -- the language ``L(Phi)`` of knowledge, probability
  and linear time, with a model checker and (probabilistic) common
  knowledge.
* :mod:`repro.betting` -- the betting game; safety; executable Theorems
  7, 8, 9 and Proposition 6; the embedded game of Appendix B.3.
* :mod:`repro.systems` -- a synchronous/asynchronous message-passing
  simulator that generates probabilistic systems from protocols.
* :mod:`repro.attack` -- probabilistic coordinated attack (CA1, CA2,
  Proposition 11).
* :mod:`repro.examples_lib` -- every worked example of the paper as a
  ready-made system.
* :mod:`repro.robustness` -- fault-tolerant sweep engine (retries,
  checkpoint/resume), deterministic fault injection, and runtime
  validators for the paper's structural invariants.
* :mod:`repro.obs` -- deterministic observability: pluggable recorders
  (no-op by default), in-memory metrics, and ``repro-trace/1`` JSONL
  tracing.  Observe-only: instrumentation can never change a result.
"""

__version__ = "1.0.0"

from . import core, obs, probability, trees
from .errors import (
    CheckpointError,
    ExecutionError,
    ReproError,
    RetryExhaustedError,
    TaskTimeoutError,
    ValidationError,
)

__all__ = [
    "core",
    "obs",
    "probability",
    "trees",
    "CheckpointError",
    "ExecutionError",
    "ReproError",
    "RetryExhaustedError",
    "TaskTimeoutError",
    "ValidationError",
    "__version__",
]
