"""Differential check of the probability-query memo against cold queries.

``ProbabilityAssignment`` answers every query through one memo keyed by
``(agent, T(c), S_ic, fact)``.  Here one long-lived assignment answers a
random schedule of queries -- all five query methods, in a random order,
each query asked at least twice -- and every answer must equal the same
query on a fresh assignment, and the event-level computation
``space(agent, c).<kernel>(satisfying_points(agent, c, fact))``.  Errors
(REQ1/REQ2 for a region of another tree, non-measurability) must match
by type.  Every backend runs: ``bitmask``, ``naive`` (no index, so the
event-level kernels), and ``wordarray`` when numpy is present.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Fact,
    FunctionAssignment,
    FutureAssignment,
    OpponentAssignment,
    PostAssignment,
    PriorAssignment,
    ProbabilityAssignment,
)
from repro.errors import NotMeasurableError, Req1Error, Req2Error
from repro.probability import use_backend, wordmask
from repro.testing import first_branch_fact, parity_fact, random_psys

SLOW = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BACKENDS = ("bitmask", "naive") + (("wordarray",) if wordmask.available() else ())

#: Query method -> the space kernel that answers it at event level.
METHODS = {
    "probability": "measure",
    "is_measurable_at": "is_measurable",
    "inner_probability": "inner_measure",
    "outer_probability": "outer_measure",
    "probability_interval": "measure_interval",
}

profiles = st.sampled_from(
    [("blind", "clock"), ("parity", "clock"), ("clock", "blind"), ("blind", "parity")]
)
shapes = st.sampled_from([(1, 3), (2, 2), (2, 3)])  # (depth, max_branching)
kinds = st.sampled_from(["post", "opponent", "fut", "prior", "whole-tree", "fixed"])
queries = st.tuples(
    st.sampled_from(sorted(METHODS)),
    st.integers(0, 1),  # agent
    st.integers(0, 3),  # position among a tree's first points: many repeats
    st.integers(0, 2),  # fact
)


def sample_assignment(psys, kind, first_point):
    if kind == "post":
        return PostAssignment(psys)
    if kind == "opponent":
        return OpponentAssignment(psys, 1)
    if kind == "fut":
        return FutureAssignment(psys)
    if kind == "prior":
        return PriorAssignment(psys)
    if kind == "whole-tree":
        # several points per run: events can split atoms (not measurable)
        return FunctionAssignment(psys, lambda _agent, point: psys.tree_of(point).points)
    # one fixed region of the first point's tree: REQ1 fails in any other tree
    fixed = frozenset(p for p in psys.tree_of(first_point).points if p.time == 1)
    return FunctionAssignment(psys, lambda _agent, _point: fixed)


def outcome(compute):
    try:
        return compute()
    except (NotMeasurableError, Req1Error, Req2Error) as error:
        return type(error)


def event_level(assignment, method, agent, point, fact):
    """The query as the space's event-level kernel computes it."""
    space = assignment.space(agent, point)
    event = assignment.satisfying_points(agent, point, fact)
    if method == "probability" and not space.is_measurable(event):
        raise NotMeasurableError("not measurable")
    return getattr(space, METHODS[method])(event)


@SLOW
@given(
    st.integers(0, 200),
    st.integers(1, 2),
    profiles,
    shapes,
    kinds,
    st.sampled_from(BACKENDS),
    st.lists(queries, min_size=1, max_size=25),
    st.randoms(use_true_random=False),
)
def test_memoized_queries_match_fresh_assignments(
    seed, trees, profile, shape, kind, backend, schedule, rng
):
    depth, branching = shape
    with use_backend(backend):
        psys = random_psys(
            seed, num_trees=trees, depth=depth, max_branching=branching, observability=profile
        )
        points = psys.system.points
        picked = random.Random(seed).sample(list(points), len(points) // 2)
        facts = (parity_fact(), first_branch_fact(), Fact.from_points(picked))
        # a few points of every tree; each query is asked at the same
        # position in every tree, trees in a random order, so a sample
        # that passed REQ1 in one tree is regularly queried from another
        heads = [tree.points[:4] for tree in psys.trees]
        ssa = sample_assignment(psys, kind, heads[0][0])
        long_lived = ProbabilityAssignment(ssa)
        # every query at least twice, the repeats in a shuffled order
        repeats = list(schedule)
        rng.shuffle(repeats)
        for method, agent, position, fact_index in schedule + repeats:
            rng.shuffle(heads)
            for tree_points in heads:
                point = tree_points[position % len(tree_points)]
                args = (agent, point, facts[fact_index])
                answer = outcome(lambda: getattr(long_lived, method)(*args))
                fresh = ProbabilityAssignment(ssa)
                assert answer == outcome(lambda: getattr(fresh, method)(*args)), method
                cold = ProbabilityAssignment(ssa)
                assert answer == outcome(lambda: event_level(cold, method, *args)), method
