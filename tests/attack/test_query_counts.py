"""Count pin: ``post_threshold`` answers each distinct query key once.

Under ``P_post`` a query's answer depends on the point only through its
``(agent, T(c), S_ic, fact)`` key, shared by a whole information class.
Over the nine n-general shapes of the ``multiparty_ck`` benchmark
workload at loss 1/3, ``post_threshold`` makes 14,985 queries but has
only 141 distinct keys.  The counts are taken by wrapping library
entry points here, not by counters in the library:

* event -> mask conversions (``OutcomeIndex.mask_of_known`` /
  ``strict_mask``) in the induced point spaces equal the number of
  distinct keys -- one per memo entry, where a conversion per query
  would make 14,985.  (The REQ2 check converts run sets in the run
  space; those are per space built, not per query, and not counted.)
* each query evaluates ``sample_space`` exactly once.
"""

from fractions import Fraction

from repro.attack import build_multiparty, post_threshold
from repro.core import ProbabilityAssignment, standard_assignments
from repro.core.model import Point
from repro.core.standard import PostAssignment
from repro.probability.bitset import OutcomeIndex

#: (lieutenants, messengers) of the ``multiparty_ck`` workload: 2-4
#: lieutenants, 3-8 messengers, 80 to 1,100 points.
SHAPES = ((2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3))
LOSS = Fraction(1, 3)


def counting(monkeypatch, owner, name, counts, counted=lambda *args: True):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if counted(*args):
            counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def distinct_keys(attack):
    post = standard_assignments(attack.psys)["post"]
    return {
        (agent, attack.psys.adversary_of(point), post.sample_space(agent, point))
        for agent in attack.group
        for point in attack.psys.system.points
    }


def test_post_threshold_converts_each_distinct_query_once(monkeypatch):
    attacks = [build_multiparty(*shape, LOSS) for shape in SHAPES]
    # one fact per attack, so a key is (agent, tree, sample) per attack
    keys = sum(len(distinct_keys(attack)) for attack in attacks)
    points = sum(len(attack.group) * len(attack.psys.system.points) for attack in attacks)

    def over_points(index, _event):
        return isinstance(index.members[0], Point)

    counts = {}
    counting(monkeypatch, OutcomeIndex, "mask_of_known", counts, over_points)
    counting(monkeypatch, OutcomeIndex, "strict_mask", counts, over_points)
    counting(monkeypatch, PostAssignment, "sample_space", counts)
    counting(monkeypatch, ProbabilityAssignment, "inner_probability", counts)
    for attack in attacks:
        post_threshold(attack)

    conversions = counts.get("mask_of_known", 0) + counts.get("strict_mask", 0)
    assert counts["inner_probability"] == points == 14_985
    assert conversions == keys == 141
    assert counts["sample_space"] == counts["inner_probability"]

