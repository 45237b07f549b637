"""The four benchmark workloads: the paper's own systems, spec to verdict.

Each workload is a closed loop with one caller: the next op is issued
when the previous one returns.  An op runs from protocol spec to verdict,
so it pays system build on every analysis, as a user does.  The seed
fixes the generated inputs; the library sees only those inputs.

Every workload runs in *rounds*.  A round holds the same mix of ops for
every seed (the seed picks the order and the equivalent inputs inside
each kind of op), and a run always ends on a round boundary.  A run's
medians therefore describe the same mix whatever the seed, which is what
keeps two sets of runs comparable.

Checks run outside the timed op and compare every result with the
values pinned in ``oracles.json`` (computed under the ``naive`` measure
backend by ``pin_oracles.py``) and with the paper's closed forms.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent


def oracles() -> Dict[str, object]:
    """The pinned expected results (see ``pin_oracles.py``)."""
    return json.loads((HERE / "oracles.json").read_text(encoding="utf-8"))


def frac(value: Fraction) -> str:
    """Exact ``"p/q"`` form of a probability (integers keep ``"p/1"``)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def frac_pair(pair: Sequence[Fraction]) -> List[str]:
    return [frac(value) for value in pair]


class Workload:
    """What the runner needs from a workload."""

    name = ""

    def setup(self, seed: int) -> None:
        """Generate inputs from ``seed`` and build what is built once."""

    def round(self) -> list:
        """The next round of op inputs: a fixed mix in seeded order."""
        raise NotImplementedError

    def run(self, item):
        """One timed op."""
        raise NotImplementedError

    def check(self, item, result) -> List[str]:
        """Every way ``result`` differs from its oracle (empty: correct)."""
        raise NotImplementedError

    def trace_items(self) -> list:
        """The fixed op list of a traced run."""
        return self.round()

    def artifact_bytes(self, result) -> Dict[str, int]:
        """Sizes of files an op left behind, by kind."""
        return {}

    def close(self) -> None:
        """Remove whatever the workload left in the working directory."""


# ----------------------------------------------------------------------
# coin_async: Section 7, one large system per op
# ----------------------------------------------------------------------

COIN_TOSSES = 10


class CoinAsync(Workload):
    """The 10-toss asynchronous coin, built and queried once per op."""

    name = "coin_async"
    trace_rounds = 4

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.expected = oracles()["coin_async"]

    def round(self) -> List[Tuple[int, int, int]]:
        # (run index, anchor time, clocked run index): symmetric choices,
        # so the answers do not depend on them but the queried points do.
        runs = 2**COIN_TOSSES
        return [
            (
                self.rng.randrange(runs),
                self.rng.randint(1, COIN_TOSSES),
                self.rng.randrange(runs),
            )
        ]

    def trace_items(self):
        return [item for _ in range(self.trace_rounds) for item in self.round()]

    def run(self, item):
        import repro.core as core
        import repro.examples_lib as examples

        run_index, anchor_time, clocked_index = item
        example = examples.repeated_coin_system(COIN_TOSSES)
        system = example.psys.system
        fact = example.most_recent_heads
        assignment = core.ProbabilityAssignment(example.post_toss_assignment())
        anchor = list(system.runs[run_index].points())[anchor_time]
        interval = assignment.probability_interval(0, anchor, fact)
        against = core.opponent_assignment(example.psys, 1)
        clocked = {
            against.probability(0, point, fact)
            for point in system.runs[clocked_index].points()
            if point.time >= 1
        }
        return interval, clocked

    def check(self, item, result) -> List[str]:
        interval, clocked = result
        low = Fraction(1, 2**COIN_TOSSES)
        problems = []
        if frac_pair(interval) != self.expected["interval"] or interval != (low, 1 - low):
            problems.append(f"interval {frac_pair(interval)} != {self.expected['interval']}")
        if sorted(frac(v) for v in clocked) != self.expected["clocked"]:
            problems.append(f"clocked {sorted(map(frac, clocked))} != {self.expected['clocked']}")
        return problems


# ----------------------------------------------------------------------
# multiparty_ck: n-general attack, post_threshold + C^eps gfp
# ----------------------------------------------------------------------

MULTIPARTY_LOSSES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
#: Largest system in the mix.  The two shapes above it (1,539 and 1,878
#: points) would take two thirds of a round between them, leaving one
#: round per run and a single sample at the median.
MULTIPARTY_MAX_POINTS = 1100


def multiparty_shapes() -> List[Tuple[int, int]]:
    """(lieutenants, messengers) with 2-4 lieutenants and 3-8 messengers
    whose system has 80 to ``MULTIPARTY_MAX_POINTS`` points
    (``3 * ((m+1)**l + 1)``)."""
    return [
        (lieutenants, messengers)
        for lieutenants in range(2, 5)
        for messengers in range(3, 9)
        if 80 <= 3 * ((messengers + 1) ** lieutenants + 1) <= MULTIPARTY_MAX_POINTS
    ]


def multiparty_key(lieutenants: int, messengers: int, loss: Fraction) -> str:
    return f"{lieutenants},{messengers},{frac(loss)}"


def multiparty_op(lieutenants: int, messengers: int, loss: Fraction):
    """Build the system, take ``post_threshold``, run the ``C^t`` gfp."""
    import repro.attack as attack_api
    import repro.core as core
    import repro.logic as logic

    attack = attack_api.build_multiparty(lieutenants, messengers, loss)
    run_level = attack_api.run_level_probability(attack)
    threshold = attack_api.post_threshold(attack)
    post = core.standard_assignments(attack.psys)["post"]
    model = logic.Model(post, {"coord": attack.coordinated})
    common = logic.CommonKnowsProb(tuple(attack.group), threshold, logic.Prop("coord"))
    return run_level, threshold, model.valid(common)


class MultipartyCK(Workload):
    """Every (lieutenants, messengers, loss) configuration once per round.

    Cost depends on the loss as well as the shape, so a round holds all
    three losses of every shape; the seed picks the order.  The traced
    run takes every shape once, each with a seeded loss.
    """

    name = "multiparty_ck"

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.shapes = multiparty_shapes()
        self.expected = oracles()["multiparty_ck"]

    def round(self):
        items = [
            (lieutenants, messengers, loss)
            for lieutenants, messengers in self.shapes
            for loss in MULTIPARTY_LOSSES
        ]
        self.rng.shuffle(items)
        return items

    def trace_items(self):
        items = [(l, m, self.rng.choice(MULTIPARTY_LOSSES)) for l, m in self.shapes]
        self.rng.shuffle(items)
        return items

    def run(self, item):
        return multiparty_op(*item)

    def check(self, item, result) -> List[str]:
        from repro.attack import multiparty_run_level

        run_level, threshold, holds = result
        expected = self.expected[multiparty_key(*item)]
        problems = []
        if run_level != multiparty_run_level(*item) or frac(run_level) != expected["run_level"]:
            problems.append(f"{item}: run level {frac(run_level)} != {expected['run_level']}")
        if frac(threshold) != expected["post_threshold"]:
            problems.append(f"{item}: threshold {frac(threshold)} != {expected['post_threshold']}")
        if not holds:
            problems.append(f"{item}: C^t fails somewhere at t = post_threshold")
        return problems


# ----------------------------------------------------------------------
# sweep_mix: Section 8 guarantee sweep through the three entry points
# ----------------------------------------------------------------------

SWEEP_MESSENGERS = tuple(range(1, 11))
SWEEP_LOSSES = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
SWEEP_WORKERS = 2
#: Leaves the audit verifier re-derives per bundle (evenly spaced; the
#: hash-chain and checkpoint tiers always cover every leaf).
AUDIT_REPLAY_SAMPLE = 15


def sweep_row_strings(rows) -> List[List[object]]:
    return [
        [
            row.protocol,
            row.messengers,
            frac(row.loss),
            frac(row.run_level),
            frac(row.post_threshold),
            bool(row.achieves_99_post),
        ]
        for row in rows
    ]


class SweepMix(Workload):
    """One op per entry point per round, in seeded order."""

    name = "sweep_mix"
    entry_points = ("guarantee_sweep", "parallel_guarantee_sweep", "robust_guarantee_sweep")

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.expected = oracles()["sweep_mix"]["rows"]
        self.workdir = Path.cwd() / ".perfbench_tmp"

    def round(self):
        items = list(self.entry_points)
        self.rng.shuffle(items)
        return items

    def run(self, item):
        import repro.attack as attack_api
        import repro.robustness as robustness

        if item == "guarantee_sweep":
            return attack_api.guarantee_sweep(SWEEP_MESSENGERS, SWEEP_LOSSES), None
        if item == "parallel_guarantee_sweep":
            rows = attack_api.parallel_guarantee_sweep(
                SWEEP_MESSENGERS, SWEEP_LOSSES, max_workers=SWEEP_WORKERS
            )
            return rows, None
        self.workdir.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(dir=self.workdir)
        checkpoint = os.path.join(directory, "sweep.jsonl")
        rows = robustness.robust_guarantee_sweep(
            SWEEP_MESSENGERS,
            SWEEP_LOSSES,
            max_workers=SWEEP_WORKERS,
            checkpoint_path=checkpoint,
            audit=True,
        )
        return rows, checkpoint

    def artifact_bytes(self, result) -> Dict[str, int]:
        """Sizes of the checkpoint and audit bundle an op left behind."""
        _rows, checkpoint = result
        if checkpoint is None:
            return {}
        from repro.robustness import default_audit_path

        return {
            "checkpoint": os.path.getsize(checkpoint),
            "audit": os.path.getsize(default_audit_path(checkpoint)),
        }

    def check(self, item, result) -> List[str]:
        rows, checkpoint = result
        problems = []
        if sweep_row_strings(rows) != self.expected:
            problems.append(f"{item}: rows differ from the pinned naive-backend rows")
        if checkpoint is not None:
            try:
                problems.extend(self._certify(checkpoint))
            finally:
                shutil.rmtree(os.path.dirname(checkpoint), ignore_errors=True)
        return problems

    def _certify(self, checkpoint: str) -> List[str]:
        from repro.robustness import default_audit_path
        from tools.verifyaudit.verify import verify_audit

        report = verify_audit(
            default_audit_path(checkpoint), checkpoint, sample=AUDIT_REPLAY_SAMPLE
        )
        if report["verdict"] != "clean" or report["leaves"] != len(self.expected):
            return [f"audit bundle not clean: {report['verdict']}, {report['leaves']} leaves"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# type3_cuts: Section 7 type-3 adversaries by enumeration
# ----------------------------------------------------------------------

P1, P2 = 0, 1
CUT_TOSSES = 3
PTS_TOSSES = 2


class Type3Cuts(Workload):
    """Banded, state and pts cut intervals; systems built in set-up.

    One op is a whole type-3 analysis: all five queries, each at a seeded
    anchor, in seeded order.  Single queries differ in cost by 500x, so a
    median over them would rest on the few samples of one query kind.
    """

    name = "type3_cuts"
    queries = (
        ("banded", 0),
        ("banded", 1),
        ("state", P1),
        ("state", P2),
        ("pts", P1),
    )

    def setup(self, seed: int) -> None:
        from repro.examples_lib import repeated_coin_system

        self.rng = random.Random(seed)
        self.expected = oracles()["type3_cuts"]
        self.examples = {}
        for tosses in (PTS_TOSSES, CUT_TOSSES):
            example = repeated_coin_system(tosses)
            runs = example.psys.system.runs
            self.examples[tosses] = (example, example.post_toss_assignment(), runs)

    def round(self):
        queries = []
        for kind, parameter in self.queries:
            tosses = PTS_TOSSES if kind == "pts" else CUT_TOSSES
            run_index = self.rng.randrange(2**tosses)
            anchor_time = self.rng.randint(1, tosses)
            queries.append((kind, parameter, run_index, anchor_time))
        self.rng.shuffle(queries)
        return [tuple(queries)]

    def _anchor(self, query):
        kind, _parameter, run_index, anchor_time = query
        tosses = PTS_TOSSES if kind == "pts" else CUT_TOSSES
        example, region_of, runs = self.examples[tosses]
        return example, region_of, list(runs[run_index].points())[anchor_time]

    def run(self, item):
        return [self._query(query) for query in item]

    def _query(self, query):
        import repro.core as core

        kind, parameter, _run_index, _time = query
        example, region_of, anchor = self._anchor(query)
        psys, fact = example.psys, example.most_recent_heads
        if kind == "banded":
            return core.interval_over_banded_cuts(psys, region_of, P1, anchor, fact, parameter)
        return core.interval_over_cuts(psys, region_of, parameter, anchor, fact, kind)

    def oracle_key(self, query) -> str:
        kind, parameter, _run_index, anchor_time = query
        if kind == "banded":
            return f"banded_width{parameter}"
        if kind == "pts":
            return "pts"
        if parameter == P2:
            return f"state_clocked_time{anchor_time}"
        return "state_unclocked"

    def check(self, item, result) -> List[str]:
        import repro.core as core

        problems = []
        for query, interval in zip(item, result):
            key = self.oracle_key(query)
            if frac_pair(interval) != self.expected[key]:
                problems.append(f"{key}: {frac_pair(interval)} != {self.expected[key]}")
            if query[0] == "pts":
                example, region_of, anchor = self._anchor(query)
                closed = core.pts_interval(
                    example.psys, region_of, P1, anchor, example.most_recent_heads
                )
                if tuple(closed) != tuple(interval):
                    problems.append(
                        f"pts enumeration {frac_pair(interval)} != closed form {frac_pair(closed)}"
                    )
        if len(result) != len(self.queries):
            problems.append(f"{len(result)} answers for {len(self.queries)} queries")
        return problems


# ----------------------------------------------------------------------
# composites: one run long enough to average the host's speed swings
# ----------------------------------------------------------------------


class Composite(Workload):
    """Several workloads interleaved, each contributing whole rounds.

    A round holds ``repeats`` rounds of every part, shuffled together, so
    a composite run covers the layers of all its parts in one long run.
    Items and results carry the index of the part they belong to.
    """

    parts: Tuple[Tuple[type, int], ...] = ()

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.members = [(part(), repeats) for part, repeats in self.parts]
        for member, _repeats in self.members:
            member.setup(seed)

    def round(self):
        items = [
            (index, item)
            for index, (member, repeats) in enumerate(self.members)
            for _ in range(repeats)
            for item in member.round()
        ]
        self.rng.shuffle(items)
        return items

    def trace_items(self):
        return [
            (index, item)
            for index, (member, _repeats) in enumerate(self.members)
            for item in member.trace_items()
        ]

    def run(self, item):
        index, inner = item
        return index, self.members[index][0].run(inner)

    def check(self, item, result) -> List[str]:
        index, inner = item
        return self.members[index][0].check(inner, result[1])

    def artifact_bytes(self, result) -> Dict[str, int]:
        index, inner = result
        return self.members[index][0].artifact_bytes(inner)

    def close(self) -> None:
        for member, _repeats in self.members:
            member.close()


class Section7(Composite):
    """``coin_async`` and ``type3_cuts``: the asynchronous coin of Section 7.

    Twelve coin ops take about as long as one type-3 analysis.
    """

    name = "section7"
    parts = ((CoinAsync, 12), (Type3Cuts, 1))


class Section8(Composite):
    """``multiparty_ck`` and ``sweep_mix``: coordinated attack, Section 8."""

    name = "section8"
    parts = ((MultipartyCK, 1), (SweepMix, 1))


WORKLOADS = {
    workload.name: workload
    for workload in (CoinAsync, MultipartyCK, SweepMix, Type3Cuts, Section7, Section8)
}
