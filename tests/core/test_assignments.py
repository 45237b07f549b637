"""Sample-space assignments, REQ1/REQ2, induced spaces (Propositions 1-2)."""

from fractions import Fraction

import pytest

from repro.core import (
    ExplicitAssignment,
    Fact,
    FunctionAssignment,
    ProbabilityAssignment,
    check_req1,
    check_req2,
    check_req2_state_generated,
    induced_point_space,
    project_runs,
)
from repro.core.standard import PostAssignment
from repro.errors import NotMeasurableError, Req1Error, Req2Error
from repro.examples_lib import input_coin_system
from repro.testing import random_psys, two_agent_coin_psys


@pytest.fixture(scope="module")
def psys():
    return two_agent_coin_psys()


@pytest.fixture(scope="module")
def two_trees():
    return random_psys(seed=9, num_trees=2, depth=1, observability=("blind", "clock"))


class TestRequirements:
    def test_req1_same_tree_ok(self, psys):
        point = psys.system.points[0]
        tree = check_req1(psys, point, psys.system.points_at_time(0))
        assert tree is psys.tree_of(point)

    def test_req1_cross_tree_rejected(self, two_trees):
        first_tree, second_tree = two_trees.trees
        point = first_tree.points[0]
        mixed = {first_tree.points[0], second_tree.points[0]}
        with pytest.raises(Req1Error):
            check_req1(two_trees, point, mixed)

    def test_req2_positive_measure(self, psys):
        point = psys.system.points[0]
        assert check_req2(psys, point, {point}) > 0

    def test_req2_empty_sample_rejected(self, psys):
        point = psys.system.points[0]
        with pytest.raises(Req2Error):
            check_req2(psys, point, frozenset())

    def test_proposition1_state_generated_samples(self, psys):
        # every time-slice of a tree is state generated -> REQ2 follows
        for time in (0, 1):
            sample = frozenset(psys.system.points_at_time(time))
            point = next(iter(sample))
            assert check_req2_state_generated(psys, point, sample)

    def test_proposition1_rejects_non_state_generated(self):
        shared = random_psys(seed=3, num_trees=1, depth=1)
        roots = [p for p in shared.system.points if p.time == 0]
        assert len(roots) >= 2
        assert not check_req2_state_generated(shared, roots[0], {roots[0]})

    def test_proposition1_holds_under_any_relabeling(self, psys):
        # Prop 1 is independent of the transition probability assignment.
        tree = psys.trees[0]
        relabeled = tree.relabel(
            lambda parent, child: Fraction(1, len(tree.children(parent)))
        )
        from repro.trees import single_tree_system

        new_psys = single_tree_system(relabeled)
        sample = frozenset(new_psys.system.points_at_time(1))
        assert check_req2_state_generated(new_psys, next(iter(sample)), sample)


class TestProjection:
    def test_project_runs(self, psys):
        sample = frozenset(psys.system.points)
        one_run = psys.system.runs[0]
        projected = project_runs([one_run], sample)
        assert projected == frozenset(point for point in sample if point.run == one_run)


class TestInducedSpace:
    def test_is_probability_space(self, psys):
        # Proposition 2: the construction yields a genuine probability space.
        point = psys.system.points[0]
        sample = frozenset(psys.system.points_at_time(1))
        space = induced_point_space(psys, point, sample)
        assert space.measure(space.outcomes) == 1
        assert space.outcomes == sample

    def test_one_point_per_run_gives_powerset(self, psys):
        point = psys.system.points[0]
        sample = frozenset(psys.system.points_at_time(1))
        space = induced_point_space(psys, point, sample)
        assert space.has_powerset_algebra()

    def test_multiple_points_per_run_group_into_atoms(self, psys):
        point = psys.system.points[0]
        sample = frozenset(psys.system.points)  # both times of both runs
        space = induced_point_space(psys, point, sample)
        assert len(space.atoms) == 2  # one atom per run
        assert all(len(atom) == 2 for atom in space.atoms)

    def test_measure_is_conditional(self, psys):
        # sample = one full run's points: conditioning renormalises to 1.
        point = psys.system.points[0]
        run = psys.system.runs[0]
        sample = frozenset(run.points())
        space = induced_point_space(psys, point, sample)
        assert space.measure(sample) == 1


class TestAssignmentContainers:
    def test_explicit_assignment_defaults_to_singleton(self, psys):
        assignment = ExplicitAssignment(psys, {})
        point = psys.system.points[0]
        assert assignment.sample_space(0, point) == frozenset([point])

    def test_explicit_assignment_strict_mode(self, psys):
        assignment = ExplicitAssignment(psys, {}, default_to_singleton=False)
        with pytest.raises(KeyError):
            assignment.sample_space(0, psys.system.points[0])

    def test_function_assignment(self, psys):
        assignment = FunctionAssignment(psys, lambda agent, point: [point])
        point = psys.system.points[0]
        assert assignment.sample_space(1, point) == frozenset([point])


class TestProbabilityAssignment:
    @pytest.fixture(scope="class")
    def post(self, psys):
        return ProbabilityAssignment(PostAssignment(psys))

    @pytest.fixture(scope="class")
    def heads(self):
        return Fact.about_local_state(
            0, lambda local: local[0] == "tosser-heads", name="heads"
        )

    def test_probability_requires_measurability(self, psys, heads):
        # For the blind observer with a whole-tree sample space, "heads"
        # splits run atoms.
        whole = FunctionAssignment(
            psys, lambda agent, point: psys.tree_of(point).points
        )
        assignment = ProbabilityAssignment(whole)
        point = psys.system.points[0]
        with pytest.raises(NotMeasurableError):
            assignment.probability(1, point, heads)
        inner = assignment.inner_probability(1, point, heads)
        outer = assignment.outer_probability(1, point, heads)
        assert inner == 0 and outer == Fraction(1, 2)

    def test_interval_consistent_with_bounds(self, psys, post, heads):
        for agent in psys.system.agents:
            for point in psys.system.points:
                inner, outer = post.probability_interval(agent, point, heads)
                assert inner == post.inner_probability(agent, point, heads)
                assert outer == post.outer_probability(agent, point, heads)

    def test_knows_probability_at_least(self, psys, post, heads):
        time1 = psys.system.points_at_time(1)
        c = time1[0]
        assert post.knows_probability_at_least(1, c, heads, Fraction(1, 2))
        assert not post.knows_probability_at_least(1, c, heads, Fraction(2, 3))

    def test_knows_interval(self, psys, post, heads):
        c = psys.system.points_at_time(1)[0]
        assert post.knowledge_interval(1, c, heads) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )
        assert post.knows_probability_interval(1, c, heads, "1/2", "1/2")
        assert not post.knows_probability_interval(1, c, heads, "2/3", "1")

    def test_space_cache_shared_across_uniform_points(self, psys, post):
        time1 = psys.system.points_at_time(1)
        first = post.space(1, time1[0])
        second = post.space(1, time1[1])
        assert first is second  # same sample -> same cached space

    def test_measurability_everywhere(self, psys, post, heads):
        assert post.is_measurable(heads)

    @pytest.mark.parametrize(
        "method, in_bit0_answer",
        [
            pytest.param(method, answer, id=method)
            for method, answer in (
                ("probability", Fraction(1, 2)),
                ("is_measurable_at", True),
                ("inner_probability", Fraction(1, 2)),
                ("outer_probability", Fraction(1, 2)),
                ("probability_interval", (Fraction(1, 2), Fraction(1, 2))),
            )
        ],
    )
    @pytest.mark.parametrize("query_other_tree_first", [False, True])
    def test_space_cache_keeps_req1_per_tree(
        self, query_other_tree_first, method, in_bit0_answer
    ):
        # A fixed "bit=0" region is a valid sample at "bit=0" points only:
        # a cached "bit=0" space must not let a "bit=1" point skip REQ1.
        example = input_coin_system()
        psys = example.psys
        fixed = frozenset(p for p in psys.tree("bit=0").points if p.time == 1)
        assignment = ProbabilityAssignment(
            FunctionAssignment(psys, lambda agent, point: fixed)
        )
        query = getattr(assignment, method)
        in_bit0 = next(p for p in psys.tree("bit=0").points if p.time == 0)
        in_bit1 = next(p for p in psys.tree("bit=1").points if p.time == 0)
        if query_other_tree_first:
            assert query(1, in_bit0, example.heads) == in_bit0_answer
        with pytest.raises(Req1Error):
            query(1, in_bit1, example.heads)
