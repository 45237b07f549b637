"""The fact-keyed event cache: identity semantics, no id recycling."""

from repro.core import Fact, ProbabilityAssignment, standard_assignments
from repro.examples_lib import three_agent_coin_system


def test_fact_hashes_and_compares_by_identity():
    first = Fact(lambda point: True, name="t")
    second = Fact(lambda point: True, name="t")
    assert first == first
    assert first != second
    assert hash(first) != hash(second) or first is second
    assert len({first, second}) == 2


def test_distinct_fact_objects_get_distinct_cache_entries():
    example = three_agent_coin_system()
    post = standard_assignments(example.psys)["post"]
    point = example.psys.system.points[0]
    heads = example.heads
    # an extensionally identical but distinct fact object must not collide
    twin = Fact(heads.holds_at, name="heads-twin")
    first = post.satisfying_points(2, point, heads)
    second = post.satisfying_points(2, point, twin)
    assert first == second
    keys = list(post._event_cache)
    assert {key[0] for key in keys} >= {heads, twin}


def test_cache_returns_same_object_on_repeat_queries():
    example = three_agent_coin_system()
    post = standard_assignments(example.psys)["post"]
    point = example.psys.system.points[0]
    first = post.satisfying_points(0, point, example.heads)
    second = post.satisfying_points(0, point, example.heads)
    assert first is second


def test_garbage_collected_fact_does_not_poison_new_facts():
    """The old id(fact) keying could hand a new fact a dead fact's entry."""
    import gc

    example = three_agent_coin_system()
    post = standard_assignments(example.psys)["post"]
    point = example.psys.system.points[0]
    doomed = Fact(lambda candidate: False, name="doomed")
    assert post.satisfying_points(0, point, doomed) == frozenset()
    del doomed
    gc.collect()
    # allocate many facts to encourage id reuse; each must compute fresh
    for _ in range(64):
        fresh = Fact(lambda candidate: True, name="fresh")
        assert post.satisfying_points(0, point, fresh) == post.sample_space(0, point)


def test_distinct_fact_objects_get_distinct_query_memo_entries():
    example = three_agent_coin_system()
    post = standard_assignments(example.psys)["post"]
    point = example.psys.system.points[0]
    heads = example.heads
    twin = Fact(heads.holds_at, name="heads-twin")
    assert post.inner_probability(2, point, heads) == post.inner_probability(2, point, twin)
    assert [key[-1] for key in post._query_cache] == [heads, twin]
    first, second = post._query_cache.values()
    # one space per sample, one event per fact
    assert first[0] is second[0]
    assert first[1] is not second[1]


def test_garbage_collected_fact_does_not_poison_the_query_memo():
    import gc

    example = three_agent_coin_system()
    post = standard_assignments(example.psys)["post"]
    point = example.psys.system.points[0]
    doomed = Fact(lambda candidate: False, name="doomed")
    assert post.inner_probability(0, point, doomed) == 0
    del doomed
    gc.collect()
    # allocate many facts to encourage id reuse; each must compute fresh
    for _ in range(64):
        fresh = Fact(lambda candidate: True, name="fresh")
        assert post.inner_probability(0, point, fresh) == 1
        assert post.probability_interval(0, point, fresh) == (1, 1)
