"""Differential check of the type-3 cut intervals against brute force.

``interval_over_cuts``, ``interval_over_banded_cuts`` and ``pts_interval``
evaluate each distinct ``(tree, region)`` pair once.  The reference here
does it the slow way: every candidate in ``K_i(c)``, every cut of its
region, one ``cut_probability_interval`` per cut.  Both must agree
exactly, or raise the same kind of error (REQ1 when a region belongs to
another tree, the enumeration limit when a region is too big).
"""

from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    FunctionAssignment,
    OpponentAssignment,
    PostAssignment,
    cut_probability_interval,
    enumerate_banded_cuts,
    interval_over_banded_cuts,
    interval_over_cuts,
    pts_interval,
)
from repro.core.cuts import CUT_CLASSES
from repro.errors import AssignmentError, Req1Error, Req2Error
from repro.probability.fractionutil import ONE, ZERO
from repro.testing import first_branch_fact, parity_fact, random_psys

SLOW = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Small enough that the brute-force reference stays fast; bigger regions
#: raise AssignmentError on both sides, which is compared too.
LIMIT = 500

profiles = st.sampled_from(
    [
        ("blind", "clock"),
        ("parity", "clock"),
        ("clock", "blind"),
        ("blind", "parity"),
        ("parity", "blind"),
    ]
)
shapes = st.sampled_from([(1, 3), (2, 2), (2, 3)])  # (depth, max_branching)
regions = st.sampled_from(["post", "opponent", "fixed"])
facts = st.sampled_from([parity_fact, first_branch_fact])


def reference_interval(psys, region_of, agent, point, fact, cuts_of):
    low, high = ONE, ZERO
    for candidate in psys.system.knowledge_set(agent, point):
        region = region_of.sample_space(agent, candidate)
        if not region:
            continue
        for cut in cuts_of(region):
            inner, outer = cut_probability_interval(psys, candidate, cut, fact)
            low = min(low, inner)
            high = max(high, outer)
    return low, high


def outcome(compute):
    try:
        return compute()
    except (AssignmentError, Req1Error, Req2Error) as error:
        return type(error)


def region_assignment(psys, kind, agent, point):
    if kind == "post":
        return PostAssignment(psys)
    if kind == "opponent":
        return OpponentAssignment(psys, 1 - agent)
    # one fixed region, from the tree of the first candidate visited: it
    # passes REQ1 there and fails it at every candidate of another tree
    first = next(iter(psys.system.knowledge_set(agent, point)))
    fixed = frozenset(p for p in psys.tree_of(first).points if p.time == 1)
    return FunctionAssignment(psys, lambda _agent, _point: fixed)


@SLOW
@given(
    st.integers(0, 200),
    st.integers(1, 2),
    profiles,
    shapes,
    regions,
    facts,
    st.integers(0, 1),
    st.integers(0, 10_000),
)
def test_cut_intervals_match_brute_force(
    seed, trees, profile, shape, region_kind, make_fact, agent, point_index
):
    depth, branching = shape
    psys = random_psys(
        seed, num_trees=trees, depth=depth, max_branching=branching, observability=profile
    )
    points = psys.system.points
    point = points[point_index % len(points)]
    region_of = region_assignment(psys, region_kind, agent, point)
    fact = make_fact()
    args = (psys, region_of, agent, point, fact)

    for cut_class, enumerate_cuts in CUT_CLASSES.items():
        cuts_of = enumerate_cuts if cut_class == "horizontal" else partial(enumerate_cuts, limit=LIMIT)
        expected = outcome(lambda: reference_interval(*args, cuts_of))
        assert outcome(lambda: interval_over_cuts(*args, cut_class, LIMIT)) == expected, cut_class
        if cut_class == "pts":
            # Proposition 10: the closed form equals the enumerated pts class
            # (the closed form never enumerates, so it has no limit to hit)
            closed = outcome(lambda: pts_interval(*args))
            assert expected is AssignmentError or closed == expected

    for width in range(depth + 1):
        cuts_of = partial(enumerate_banded_cuts, width=width, limit=LIMIT)
        expected = outcome(lambda: reference_interval(*args, cuts_of))
        actual = outcome(lambda: interval_over_banded_cuts(*args, width, LIMIT))
        assert actual == expected, width
