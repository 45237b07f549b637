"""Differential check of the one-pass induced point space against Section 5.

``induced_point_space`` groups the sample by run once and decides REQ1,
REQ2 and the projection in that pass.  The reference here is the
definition spelled out: :func:`check_req2` (REQ1 inside it) followed by
``Proj(R', S_ic)`` of every run atom ``R'``, each conditioned on
``R(S_ic)``.  Both must agree on the atoms, on every atom's probability,
and on the error type, for every standard assignment's samples and for
samples built to fail: a point of another tree, a point past its run's
horizon, the empty sample, and a coarse run space (built with
``generators=``) in which ``R(S_ic)`` is not measurable.  Every backend
runs: ``bitmask``, ``naive``, and ``wordarray`` when numpy is present.

A second check pins the bitmask space's atom masks, which are derived
from contiguous bit ranges, to ``index.mask_of(atom)`` for spaces from
every constructor.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    FutureAssignment,
    OpponentAssignment,
    PostAssignment,
    PriorAssignment,
    check_req2,
    induced_point_space,
    project_runs,
)
from repro.core.model import Point
from repro.errors import Req1Error, Req2Error
from repro.probability import FiniteProbabilitySpace, use_backend, wordmask
from repro.testing import random_psys
from repro.trees.probabilistic_system import ProbabilisticSystem

SLOW = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BACKENDS = ("bitmask", "naive") + (("wordarray",) if wordmask.available() else ())

profiles = st.sampled_from(
    [("blind", "clock"), ("parity", "clock"), ("clock", "blind"), ("full", "parity")]
)
shapes = st.sampled_from([(1, 3), (2, 2), (2, 3)])  # (depth, max_branching)


class CoarseRunSpaces(ProbabilisticSystem):
    """Each tree's run algebra generated by its first two runs alone.

    Their union is one atom, so a sample meeting exactly one of them has
    a non-measurable ``R(S_ic)``.
    """

    def run_space(self, adversary):
        tree = self.tree(adversary)
        return tree.run_space(generators=[tree.runs[:2]])


def reference_space(psys, point, sample):
    """``(atoms, {atom: probability})`` by the Section 5 definition."""
    sample = frozenset(sample)
    denominator = check_req2(psys, point, sample)
    run_space = psys.run_space(psys.tree_of(point).adversary)
    measures = {}
    for run_atom in run_space.atoms:
        projected = project_runs(run_atom, sample)
        if projected:
            measures[projected] = run_space.measure(run_atom) / denominator
    return frozenset(measures), measures


def outcome(compute, *args):
    try:
        return compute(*args)
    except (Req1Error, Req2Error) as error:
        return type(error)


def one_pass(psys, point, sample):
    space = induced_point_space(psys, point, sample)
    assert space.outcomes == frozenset(sample)
    atoms = frozenset(space.atoms)
    assert len(atoms) == len(space.atoms)
    return atoms, {atom: space.atom_probability(atom) for atom in space.atoms}


def samples(psys):
    """``(point, sample)`` pairs: standard samples and built failures."""
    system = psys.system
    assignments = (
        PostAssignment(psys),
        FutureAssignment(psys),
        PriorAssignment(psys),
        OpponentAssignment(psys, 0),
        OpponentAssignment(psys, 1),
    )
    for point in system.points:
        for agent in system.agents:
            for assignment in assignments:
                yield point, assignment.sample_space(agent, point)
    first = system.points[0]
    yield first, frozenset()
    run = first.run
    yield first, frozenset({first, Point(run, run.horizon)})
    for tree in psys.trees[1:]:
        yield first, frozenset({first, tree.points[0]})


@SLOW
@given(st.integers(0, 200), st.integers(1, 3), profiles, shapes, st.sampled_from(BACKENDS))
def test_one_pass_matches_the_section5_reference(seed, trees, profile, shape, backend):
    depth, branching = shape
    with use_backend(backend):
        psys = random_psys(
            seed, num_trees=trees, depth=depth, max_branching=branching, observability=profile
        )
        kinds = set()
        for point, sample in samples(psys):
            expected = outcome(reference_space, psys, point, sample)
            assert outcome(one_pass, psys, point, sample) == expected
            kinds.add(expected if isinstance(expected, type) else "space")
        assert "space" in kinds and Req2Error in kinds
        assert Req1Error in kinds  # the point past its run's horizon


@SLOW
@given(st.integers(0, 200), st.integers(1, 3), shapes, st.sampled_from(BACKENDS))
def test_non_measurable_runs_raise_req2(seed, trees, shape, backend):
    depth, branching = shape
    with use_backend(backend):
        psys = random_psys(seed, num_trees=trees, depth=depth, max_branching=branching)
        coarse = CoarseRunSpaces(psys.trees)
        for tree in coarse.trees:
            runs = tree.runs
            point = tree.points[0]
            cases = [
                frozenset(runs[0].points()),
                frozenset(p for run in runs[:2] for p in run.points()),
                frozenset(tree.points),
            ]
            for sample in cases:
                expected = outcome(reference_space, coarse, point, sample)
                assert outcome(one_pass, coarse, point, sample) == expected
            if len(runs) > 1:
                assert outcome(one_pass, coarse, point, cases[0]) is Req2Error


def assert_masks_match_index(space):
    index = space.outcome_index
    assert space._atom_masks == tuple(index.mask_of(atom) for atom in space.atoms)


def test_atom_masks_are_the_index_masks_for_every_constructor():
    with use_backend("bitmask"):
        psys = random_psys(
            3, num_trees=2, depth=2, max_branching=3, observability=("blind", "clock")
        )
        tree = psys.trees[0]
        point = tree.points[0]
        half = Fraction(1, 2)
        general = FiniteProbabilitySpace(
            [{"a", "b"}, {"c"}], {frozenset({"a", "b"}): half, frozenset({"c"}): half}
        )
        masses = FiniteProbabilitySpace.from_point_masses({"x": half, "y": half})
        quarter = Fraction(1, 4)
        blocks = FiniteProbabilitySpace.from_atoms(
            [{1, 2, 3}, {4}, {5, 6}], [half, quarter, quarter]
        )
        spaces = [
            general,
            masses,
            blocks,
            FiniteProbabilitySpace.uniform(range(5)),
            FiniteProbabilitySpace.uniform(range(4)).coarsen([{0, 1}, {2, 3}]),
            blocks.condition({1, 2, 3, 4}),
            general.product(blocks),
            masses.product(masses),
            tree.run_space(),
            tree.run_space(generators=[tree.runs[:2]]),
            psys.run_space(tree.adversary).condition(tree.runs[:2]),
            induced_point_space(psys, point, tree.points),
            induced_point_space(psys, point, PostAssignment(psys).sample_space(1, point)),
        ]
        for space in spaces:
            assert_masks_match_index(space)
