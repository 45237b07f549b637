"""Type-3 adversaries: cuts, cut classes, Proposition 10 (Section 7)."""

from fractions import Fraction

import pytest

from repro.core import (
    Fact,
    FunctionAssignment,
    PostAssignment,
    ProbabilityAssignment,
    count_point_cuts,
    cut_probability_interval,
    enumerate_horizontal_cuts,
    enumerate_partial_cuts,
    enumerate_point_cuts,
    enumerate_state_cuts,
    interval_over_cuts,
    points_by_run,
    pts_interval,
    verify_proposition10,
)
from repro.errors import AssignmentError, Req1Error
from repro.examples_lib import biased_async_system, input_coin_system, repeated_coin_system


@pytest.fixture(scope="module")
def biased():
    return biased_async_system()


@pytest.fixture(scope="module")
def region(biased):
    """p2's region at a time-0 point: {(h,0), (t,0), (t,1)}."""
    post = PostAssignment(biased.psys)
    return post.sample_space(1, biased.time0_points[0])


class TestCutEnumeration:
    def test_points_by_run_groups(self, region):
        groups = points_by_run(region)
        sizes = sorted(len(points) for points in groups.values())
        assert sizes == [1, 2]  # h-run contributes one point, t-run two

    def test_count_point_cuts(self, region):
        assert count_point_cuts(region) == 2

    def test_point_cuts_contents(self, region):
        cuts = list(enumerate_point_cuts(region))
        assert len(cuts) == 2
        for cut in cuts:
            assert len(cut) == 2  # one point per run
            assert len({point.run for point in cut}) == 2

    def test_point_cut_limit(self, region):
        with pytest.raises(AssignmentError):
            list(enumerate_point_cuts(region, limit=1))

    def test_partial_cuts(self, region):
        cuts = list(enumerate_partial_cuts(region))
        # (1+1)*(2+1) - 1 = 5 nonempty partial cuts
        assert len(cuts) == 5
        for cut in cuts:
            runs = [point.run for point in cut]
            assert len(runs) == len(set(runs))

    def test_state_cuts_are_antichains(self, region):
        cuts = list(enumerate_state_cuts(region))
        for cut in cuts:
            runs = [point.run for point in cut]
            # states may cover several runs, but no run twice
            assert len(runs) == len(set(runs))

    def test_state_cuts_match_paper(self, region):
        # The paper: choices are {R} and {T} (R covers both runs, T only t).
        cuts = {frozenset(point.time for point in cut) for cut in enumerate_state_cuts(region)}
        assert {frozenset({0}), frozenset({1})} == cuts

    def test_horizontal_cuts(self, region):
        cuts = list(enumerate_horizontal_cuts(region))
        assert len(cuts) == 2  # times 0 and 1
        assert all(len({point.time for point in cut}) == 1 for cut in cuts)


class TestCutProbabilities:
    def test_paper_pts_values(self, biased, region):
        anchor = biased.time0_points[0]
        values = {
            cut_probability_interval(biased.psys, anchor, cut, biased.heads)
            for cut in enumerate_point_cuts(region)
        }
        assert values == {(Fraction(99, 100), Fraction(99, 100))}

    def test_paper_state_values(self, biased, region):
        anchor = biased.time0_points[0]
        values = {
            cut_probability_interval(biased.psys, anchor, cut, biased.heads)
            for cut in enumerate_state_cuts(region)
        }
        assert values == {
            (Fraction(99, 100), Fraction(99, 100)),
            (Fraction(0), Fraction(0)),
        }

    def test_intervals_over_classes(self, biased):
        post = PostAssignment(biased.psys)
        anchor = biased.time0_points[0]
        pts = interval_over_cuts(biased.psys, post, 1, anchor, biased.heads, "pts")
        state = interval_over_cuts(biased.psys, post, 1, anchor, biased.heads, "state")
        assert pts == (Fraction(99, 100), Fraction(99, 100))
        assert state == (Fraction(0), Fraction(99, 100))

    def test_partial_cuts_widen_to_degenerate(self, biased):
        # the adversary that only lets you bet when you'd lose
        post = PostAssignment(biased.psys)
        anchor = biased.time0_points[0]
        partial = interval_over_cuts(
            biased.psys, post, 1, anchor, biased.heads, "partial"
        )
        assert partial == (Fraction(0), Fraction(1))


class TestClosedForm:
    def test_closed_form_equals_enumeration(self, biased):
        post = PostAssignment(biased.psys)
        anchor = biased.time0_points[0]
        closed = pts_interval(biased.psys, post, 1, anchor, biased.heads)
        enumerated = interval_over_cuts(
            biased.psys, post, 1, anchor, biased.heads, "pts"
        )
        assert closed == enumerated

    def test_closed_form_scales_to_big_region(self):
        # 3-toss system: the blind agent's region has 2**3 runs x 4 points.
        example = repeated_coin_system(3)
        post = PostAssignment(example.psys)
        anchor = next(iter(example.post_toss_points))
        low, high = pts_interval(
            example.psys, post, 0, anchor, example.most_recent_heads
        )
        # the root (pre-toss) point forces the inner measure to 0 here
        assert low == Fraction(0)
        assert high == Fraction(7, 8)


class TestReq1AcrossTrees:
    def test_shared_region_from_another_tree_raises(self, monkeypatch):
        # p2 sees nothing, so K_2 holds time-0 points of both trees; a
        # region of tree "bit=0" violates REQ1 at every "bit=1" candidate,
        # even when a "bit=0" candidate with the same region came first.
        example = input_coin_system()
        psys = example.psys
        fixed = frozenset(p for p in psys.tree("bit=0").points if p.time == 1)
        region_of = FunctionAssignment(psys, lambda agent, point: fixed)
        anchor = psys.system.points_at_time(0)[0]
        candidates = sorted(
            psys.system.knowledge_set(1, anchor),
            key=lambda point: psys.adversary_of(point) != "bit=0",
        )
        assert {psys.adversary_of(point) for point in candidates} == {"bit=0", "bit=1"}
        monkeypatch.setattr(psys.system, "knowledge_set", lambda agent, point: candidates)
        with pytest.raises(Req1Error):
            pts_interval(psys, region_of, 1, anchor, example.heads)
        with pytest.raises(Req1Error):
            interval_over_cuts(psys, region_of, 1, anchor, example.heads, "pts")


class TestProposition10:
    def test_post_equals_pts_small_system(self, biased):
        post = ProbabilityAssignment(PostAssignment(biased.psys))
        for agent in (0, 1):
            assert verify_proposition10(biased.psys, post, agent, biased.heads)

    def test_post_equals_pts_async_coin(self):
        example = repeated_coin_system(2)
        post = ProbabilityAssignment(PostAssignment(example.psys))
        assert verify_proposition10(
            example.psys, post, 0, example.most_recent_heads, enumeration_limit=200
        )
