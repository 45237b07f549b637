"""The standard assignments and the lattice (Section 6, Propositions 4-5)."""

from fractions import Fraction

import pytest

from repro.core import (
    Fact,
    FutureAssignment,
    OpponentAssignment,
    PostAssignment,
    PriorAssignment,
    ProbabilityAssignment,
    conditioning_identity_everywhere,
    conditioning_identity_holds,
    opponent_assignment,
    refinement_partition,
    standard_assignments,
)
from repro.errors import AssignmentError
from repro.examples_lib import three_agent_coin_system
from repro.testing import random_psys


@pytest.fixture(scope="module")
def coin():
    return three_agent_coin_system()


@pytest.fixture(scope="module")
def psys(coin):
    return coin.psys


@pytest.fixture(scope="module")
def named(psys):
    return {
        "post": PostAssignment(psys),
        "fut": FutureAssignment(psys),
        "prior": PriorAssignment(psys),
        "opp2": OpponentAssignment(psys, 1),
        "opp3": OpponentAssignment(psys, 2),
    }


class TestSampleSpaces:
    def test_post_is_tree_knowledge(self, psys, named):
        c = psys.system.points_at_time(1)[0]
        sample = named["post"].sample_space(0, c)
        tree = psys.tree_of(c)
        assert sample == frozenset(
            d for d in tree.points if d.local_state(0) == c.local_state(0)
        )

    def test_fut_is_same_global_state(self, psys, named):
        c = psys.system.points_at_time(1)[0]
        sample = named["fut"].sample_space(0, c)
        assert sample == frozenset(
            d for d in psys.system.points if d.global_state == c.global_state
        )

    def test_fut_is_agent_independent(self, psys, named):
        for point in psys.system.points:
            assert named["fut"].sample_space(0, point) == named["fut"].sample_space(
                2, point
            )

    def test_opp_is_intersection(self, psys, named):
        for point in psys.system.points:
            joint = named["opp3"].sample_space(0, point)
            mine = named["post"].sample_space(0, point)
            theirs = named["post"].sample_space(2, point)
            assert joint == mine & theirs

    def test_opp_self_is_post_for_that_agent(self, psys, named):
        # footnote 12: Tree^i_ic = Tree_ic
        own = OpponentAssignment(psys, 0)
        for point in psys.system.points:
            assert own.sample_space(0, point) == named["post"].sample_space(0, point)

    def test_prior_is_time_slice(self, psys, named):
        c = psys.system.points_at_time(1)[0]
        assert named["prior"].sample_space(0, c) == frozenset(
            psys.system.points_at_time(1)
        )


class TestStructuralProperties:
    def test_all_named_are_standard(self, named):
        for name, ssa in named.items():
            assert ssa.is_standard(), name

    def test_consistency(self, named):
        assert named["post"].is_consistent()
        assert named["fut"].is_consistent()
        assert named["opp3"].is_consistent()
        # prior is inconsistent: p3 knows the outcome but All_ic ignores it
        assert not named["prior"].is_consistent()

    def test_requirements_satisfied(self, named):
        for name, ssa in named.items():
            assert ssa.satisfies_requirements(), name


class TestLattice:
    def test_chain_fut_opp_post(self, named):
        assert named["fut"].leq(named["opp3"])
        assert named["opp3"].leq(named["post"])
        assert named["fut"].leq(named["post"])

    def test_post_maximal_consistent(self, named):
        # post is greatest among the consistent assignments here
        for name in ("fut", "opp2", "opp3"):
            assert named[name].leq(named["post"])

    def test_strictness(self, named):
        assert named["fut"].lt(named["post"])
        # in this small system fut and opp3 happen to coincide everywhere
        assert named["fut"].leq(named["opp3"]) and named["opp3"].leq(named["fut"])
        assert not named["post"].lt(named["post"])

    def test_leq_fails_across_incomparable(self, named):
        # prior vs fut: prior's spaces are whole time slices, fut's are nodes
        assert named["fut"].leq(named["prior"])
        assert not named["prior"].leq(named["fut"])


class TestProposition4:
    def test_refinement_fut_in_post(self, psys, named):
        c = psys.system.points_at_time(1)[0]
        blocks = refinement_partition(named["fut"], named["post"], 0, c)
        union = frozenset().union(*blocks)
        assert union == named["post"].sample_space(0, c)
        assert sum(len(block) for block in blocks) == len(union)

    def test_refinement_opp_in_post(self, psys, named):
        for point in psys.system.points:
            blocks = refinement_partition(named["opp3"], named["post"], 0, point)
            assert frozenset().union(*blocks) == named["post"].sample_space(0, point)

    def test_refinement_fails_when_not_leq(self, psys, named):
        # post inside fut is not a refinement (fut is smaller)
        c = psys.system.points_at_time(1)[0]
        with pytest.raises(AssignmentError):
            refinement_partition(named["post"], named["fut"], 0, c)


class TestProposition5:
    def test_conditioning_identity_fut_under_post(self, psys, named):
        lower = ProbabilityAssignment(named["fut"])
        higher = ProbabilityAssignment(named["post"])
        assert conditioning_identity_everywhere(lower, higher)

    def test_conditioning_identity_opp_under_post(self, psys, named):
        lower = ProbabilityAssignment(named["opp3"])
        higher = ProbabilityAssignment(named["post"])
        assert conditioning_identity_everywhere(lower, higher)

    def test_pointwise_values(self, coin, psys, named):
        # mu_fut derived by conditioning mu_post on Pref_ic.
        lower = ProbabilityAssignment(named["fut"])
        higher = ProbabilityAssignment(named["post"])
        c = psys.system.points_at_time(1)[0]
        assert conditioning_identity_holds(lower, higher, 0, c)
        small = named["fut"].sample_space(0, c)
        conditioned = higher.space(0, c).condition(small)
        for atom in lower.space(0, c).atoms:
            assert conditioned.measure(atom) == lower.space(0, c).measure(atom)


class TestFactories:
    def test_standard_assignments_names(self, psys):
        named = standard_assignments(psys)
        assert set(named) == {"post", "fut", "prior"}
        assert all(isinstance(pa, ProbabilityAssignment) for pa in named.values())

    def test_opponent_assignment_factory(self, psys):
        pa = opponent_assignment(psys, 2)
        assert pa.ssa.opponent == 2


class TestPaperValues:
    def test_coin_probabilities(self, coin, psys):
        heads = coin.heads
        named = standard_assignments(psys)
        time1 = psys.system.points_at_time(1)
        c = time1[0]
        assert named["post"].probability(0, c, heads) == Fraction(1, 2)
        fut_values = sorted(named["fut"].probability(0, p, heads) for p in time1)
        assert fut_values == [Fraction(0), Fraction(1)]
        assert named["prior"].probability(0, c, heads) == Fraction(1, 2)

    def test_knowledge_against_each_opponent(self, coin, psys):
        heads = coin.heads
        c = psys.system.points_at_time(1)[0]
        against_p2 = opponent_assignment(psys, 1)
        against_p3 = opponent_assignment(psys, 2)
        half = Fraction(1, 2)
        assert against_p2.knows_probability_at_least(0, c, heads, half)
        assert not against_p3.knows_probability_at_least(0, c, heads, half)


MULTI_TREE_PROFILES = [("blind", "clock"), ("parity", "blind"), ("clock", "parity")]


class TestTreeIcAcrossTrees:
    """``Tree_ic = K_i(c) intersect T(c)`` where ``K_i(c)`` spans several trees.

    The coin above has one tree, where ``K_i(c) subseteq T(c)`` always
    holds; these systems have two or three, with agents that cannot tell
    the trees apart.
    """

    @pytest.mark.parametrize("profile", MULTI_TREE_PROFILES)
    @pytest.mark.parametrize("seed", range(4))
    def test_post_and_opponent_samples_are_brute_force(self, seed, profile):
        psys = random_psys(seed, num_trees=2 + seed % 2, observability=profile)
        system = psys.system
        post = PostAssignment(psys)
        opponents = [OpponentAssignment(psys, j) for j in system.agents]
        spans_trees = False
        for point in system.points:
            tree = psys.tree_of(point)
            for agent in system.agents:
                mine = frozenset(
                    d for d in tree.points if system.indistinguishable(agent, point, d)
                )
                spans_trees |= mine != system.knowledge_set(agent, point)
                assert post.sample_space(agent, point) == mine
                for opponent in opponents:
                    joint = frozenset(
                        d
                        for d in mine
                        if system.indistinguishable(opponent.opponent, point, d)
                    )
                    assert opponent.sample_space(agent, point) == joint
        assert spans_trees

    @pytest.mark.parametrize(
        "first",
        [
            "knowledge_set",
            "knowledge_mask",
            "agent_class_masks",
            "local_state_classes",
            "is_synchronous",
        ],
    )
    @pytest.mark.parametrize("profile", MULTI_TREE_PROFILES)
    def test_lazy_classes_match_a_grouping_over_points(self, first, profile):
        system = random_psys(5, num_trees=2, observability=profile).system
        expected = [{} for _ in system.agents]
        for point in system.points:
            for agent in system.agents:
                expected[agent].setdefault(point.local_state(agent), []).append(point)
        probe = system.points[-1]
        if first == "is_synchronous":
            system.is_synchronous()
        elif first in ("knowledge_set", "knowledge_mask"):
            getattr(system, first)(1, probe)
        else:
            getattr(system, first)(1)
        index = system.point_index
        for agent in system.agents:
            classes = expected[agent]
            assert system.agent_class_masks(agent) == tuple(
                index.mask_of(points) for points in classes.values()
            )
            listed = system.local_state_classes(agent)
            assert list(listed) == list(classes)
            assert listed == {local: tuple(points) for local, points in classes.items()}
            for point in system.points:
                members = classes[point.local_state(agent)]
                assert system.knowledge_set(agent, point) == frozenset(members)
                assert system.knowledge_mask(agent, point) == index.mask_of(members)
        assert system.is_synchronous() == all(
            len({point.time for point in points}) == 1
            for classes in expected
            for points in classes.values()
        )
