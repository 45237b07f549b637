"""The four named sample-space assignments and the lattice (Section 6).

* ``S_post`` -- ``Tree_ic``: the points of ``T(c)`` the agent considers
  possible.  Betting against a copy of yourself; the decision theorist's
  posterior; the assignment advocated by [FZ88a] in the synchronous case.
* ``S_fut`` -- ``Pref_ic``: the points with the global state ``r(k)``.
  Betting against an opponent with complete knowledge of the past
  ([HMT88], [LS82]); past events have probability 0 or 1.
* ``S^j`` (``S_opp``) -- ``Tree^j_ic = Tree_ic intersect Tree_jc``: betting
  against agent ``p_j``; the joint knowledge of bettor and opponent.
* ``S_prior`` -- ``All_ic``: all time-``k`` points of ``T(c)``; simulates
  the a-priori probability on runs; *inconsistent* (ignores everything the
  agent has learned).

The module also provides executable forms of Proposition 4 (refinement
partitions along the lattice) and Proposition 5 (lower assignments are
conditionings of higher ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..errors import AssignmentError
from .assignments import PointSet, ProbabilityAssignment, SampleSpaceAssignment
from .model import Point

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem
    from ..trees.tree import ComputationTree


class _TreeIndexed(SampleSpaceAssignment):
    """Shared machinery: a per-tree index from a key to the points having it.

    Each subclass groups a tree's points by the one key its sample spaces
    read (:meth:`_groups`), so an assignment builds only its own index.
    The index is built eagerly, here, for every tree.
    """

    def __init__(self, psys: ProbabilisticSystem, name: Optional[str] = None) -> None:
        super().__init__(psys, name)
        self._index: Dict[tuple, PointSet] = {}
        for tree in psys.trees:
            for key, points in self._groups(tree):
                self._index[key] = frozenset(points)

    def _groups(self, tree: ComputationTree) -> Iterable[Tuple[tuple, List[Point]]]:
        """``(key, points)`` pairs; each key starts with ``tree.adversary``.

        Plain lists suffice: ``tree.points`` enumerates each point once.
        """
        raise NotImplementedError


class _LocalIndexed(_TreeIndexed):
    """Indexed by ``(adversary, agent, local state)``: ``Tree_ic`` ingredients."""

    def _groups(self, tree: ComputationTree) -> Iterable[Tuple[tuple, List[Point]]]:
        agent_locals: List[Dict[object, List[Point]]] = []
        # read each run's state tuple directly instead of dispatching
        # through point.local_state: this loop touches every (point,
        # agent) pair of every tree
        for point in tree.points:
            locals_ = point.run.states[point.time].local_states
            if len(agent_locals) < len(locals_):
                agent_locals.extend({} for _ in range(len(locals_) - len(agent_locals)))
            for agent, local in enumerate(locals_):
                agent_locals[agent].setdefault(local, []).append(point)
        adversary = tree.adversary
        for agent, mapping in enumerate(agent_locals):
            for local, points in mapping.items():
                yield (adversary, agent, local), points

    def tree_points_with_local(self, tree: ComputationTree, agent: int, local) -> PointSet:
        """``Tree_ic`` ingredients: points of the tree with a given local state."""
        return self._index.get((tree.adversary, agent, local), frozenset())


class PostAssignment(_LocalIndexed):
    """``S_post``: ``S(i, c) = Tree_ic = { d in T(c) : c ~_i d }``."""

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="post")

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_with_local(tree, agent, point.local_state(agent))


class FutureAssignment(_TreeIndexed):
    """``S_fut``: ``S(i, c) = Pref_ic`` -- all points with global state ``r(k)``.

    Independent of the agent; by the technical assumption these are exactly
    the points ``(r', k)`` whose runs extend ``c``'s node, so events decided
    before ``c`` get probability 0 or 1 (hence "future").
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="fut")

    def _groups(self, tree: ComputationTree) -> Iterable[Tuple[tuple, List[Point]]]:
        by_state: Dict[object, List[Point]] = {}
        for point in tree.points:
            by_state.setdefault(point.run.states[point.time], []).append(point)
        adversary = tree.adversary
        return (((adversary, state), points) for state, points in by_state.items())

    def tree_points_with_state(self, tree: ComputationTree, state) -> PointSet:
        """All points of the tree with a given global state (``Pref_ic``)."""
        return self._index.get((tree.adversary, state), frozenset())

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_with_state(tree, point.global_state)


class OpponentAssignment(_LocalIndexed):
    """``S^j``: ``S(i, c) = Tree^j_ic = Tree_ic intersect Tree_jc``.

    The joint knowledge of the agent and its betting opponent ``p_j``.
    Note ``Tree^i_ic = Tree_ic``, so ``OpponentAssignment(psys, i)`` for
    agent ``i`` itself coincides with ``S_post`` *for that agent* (the
    full assignments still differ, as the paper's footnote 12 observes).
    """

    def __init__(self, psys: ProbabilisticSystem, opponent: int) -> None:
        super().__init__(psys, name=f"opp({opponent})")
        self.opponent = opponent

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        mine = self.tree_points_with_local(tree, agent, point.local_state(agent))
        theirs = self.tree_points_with_local(
            tree, self.opponent, point.local_state(self.opponent)
        )
        return mine & theirs


class PriorAssignment(_TreeIndexed):
    """``S_prior``: ``S(i, c) = All_ic`` -- every time-``k`` point of ``T(c)``.

    Simulates the a-priori probability on runs; inconsistent in general
    (``S_ic`` need not be contained in ``K_i(c)``), which Section 8 shows
    can make an agent "know with high probability" a fact it knows false.
    """

    def __init__(self, psys: ProbabilisticSystem) -> None:
        super().__init__(psys, name="prior")

    def _groups(self, tree: ComputationTree) -> Iterable[Tuple[tuple, List[Point]]]:
        by_time: Dict[int, List[Point]] = {}
        for point in tree.points:
            by_time.setdefault(point.time, []).append(point)
        adversary = tree.adversary
        return (((adversary, time), points) for time, points in by_time.items())

    def tree_points_at_time(self, tree: ComputationTree, time: int) -> PointSet:
        """All time-``k`` points of the tree (``All_ic``)."""
        return self._index.get((tree.adversary, time), frozenset())

    def sample_space(self, agent: int, point: Point) -> PointSet:
        tree = self.psys.tree_of(point)
        return self.tree_points_at_time(tree, point.time)


def standard_assignments(psys: ProbabilisticSystem) -> Dict[str, ProbabilityAssignment]:
    """The named probability assignments ``P_post``, ``P_fut``, ``P_prior``."""
    return {
        "post": ProbabilityAssignment(PostAssignment(psys)),
        "fut": ProbabilityAssignment(FutureAssignment(psys)),
        "prior": ProbabilityAssignment(PriorAssignment(psys)),
    }


def opponent_assignment(psys: ProbabilisticSystem, opponent: int) -> ProbabilityAssignment:
    """The probability assignment ``P^j`` for betting against ``p_j``."""
    return ProbabilityAssignment(OpponentAssignment(psys, opponent))


# ----------------------------------------------------------------------
# Proposition 4: refinement partitions along the lattice
# ----------------------------------------------------------------------


def refinement_partition(
    lower: SampleSpaceAssignment,
    higher: SampleSpaceAssignment,
    agent: int,
    point: Point,
) -> Tuple[PointSet, ...]:
    """Partition ``S'_ic`` (higher) into sets ``S_id`` (lower), ``d in S'_ic``.

    Proposition 4: possible whenever both assignments are standard and
    ``lower <= higher``.  Raises :class:`AssignmentError` if the claimed
    partition fails (which would falsify the proposition for this instance).
    """
    big = higher.sample_space(agent, point)
    blocks: List[PointSet] = []
    covered: set = set()
    for member in sorted(big, key=lambda p: (p.time, repr(p.global_state))):
        if member in covered:
            continue
        block = lower.sample_space(agent, member)
        if not block <= big:
            raise AssignmentError(
                f"S_id escapes S'_ic at {member!r}: refinement fails"
            )
        if covered & block:
            raise AssignmentError("refinement blocks overlap: S is not uniform")
        blocks.append(block)
        covered |= block
    if covered != set(big):
        raise AssignmentError("refinement blocks do not cover S'_ic")
    return tuple(blocks)


# ----------------------------------------------------------------------
# Proposition 5: conditioning along the lattice
# ----------------------------------------------------------------------


def conditioning_identity_holds(
    lower: ProbabilityAssignment,
    higher: ProbabilityAssignment,
    agent: int,
    point: Point,
) -> bool:
    """Check Proposition 5 at one (agent, point).

    With ``P <= P'`` consistent and standard in a synchronous system:
    (a) every measurable ``S in X_ic`` is measurable in ``X'_ic``;
    (b) ``mu'_ic(S_ic) > 0``;
    (c) ``mu_ic(S) = mu'_ic(S | S_ic)``.
    """
    small_sample = lower.sample_space(agent, point)
    small_space = lower.space(agent, point)
    big_space = higher.space(agent, point)
    if not big_space.is_measurable(small_sample):
        return False
    if big_space.measure(small_sample) == 0:
        return False
    conditioned = big_space.condition(small_sample)
    for atom in small_space.atoms:
        if not big_space.is_measurable(atom):
            return False
        if conditioned.measure(atom) != small_space.measure(atom):
            return False
    return True


def conditioning_identity_everywhere(
    lower: ProbabilityAssignment, higher: ProbabilityAssignment
) -> bool:
    """Proposition 5 checked at every agent and point of the system."""
    system = lower.psys.system
    return all(
        conditioning_identity_holds(lower, higher, agent, point)
        for agent in system.agents
        for point in system.points
    )
