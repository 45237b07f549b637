"""Sample-space assignments and induced probability assignments (Section 5).

A *probability assignment* ``P`` maps an agent ``p_i`` and a point ``c`` to
a probability space ``P_ic = (S_ic, X_ic, mu_ic)`` used to evaluate
``Pr_i(phi) >= alpha`` at ``c``.  The paper reduces choosing ``P`` to
choosing a *sample-space assignment* ``S`` -- which points appear in
``S_ic`` -- subject to:

* **REQ1**: all points of ``S_ic`` lie in the one computation tree ``T(c)``;
* **REQ2**: the runs through ``S_ic`` form a measurable set of positive
  measure in ``T(c)``'s run space.

Given these, the induced space conditions the run distribution on
``R(S_ic)`` and projects: measurable point sets are projections of
measurable run sets (``X_ic = { Proj(R', S_ic) : R' in X_A }``), and
``mu_ic(S) = mu_A(R(S) | R(S_ic))``.  Propositions 1 and 2 (this module's
:func:`check_req2_state_generated` and the constructor of
:func:`induced_point_space`) guarantee the construction is well-defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..errors import NotMeasurableError, Req1Error, Req2Error
from ..probability.fractionutil import ZERO
from ..probability.space import FiniteProbabilitySpace
from .facts import Fact, state_generated_point_set
from .model import Point, Run

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem
    from ..trees.tree import ComputationTree

PointSet = FrozenSet[Point]


# ----------------------------------------------------------------------
# REQ1 / REQ2
# ----------------------------------------------------------------------


def check_req1(psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]) -> ComputationTree:
    """Verify REQ1: every point of the sample lies in ``T(c)``.

    Returns the tree on success; raises :class:`Req1Error` otherwise.
    """
    tree = psys.tree_of(point)
    for member in sample:
        if not tree.contains_point(member):
            raise Req1Error(
                f"sample point {member!r} lies outside T(c) "
                f"(adversary {tree.adversary!r})"
            )
    return tree


def check_req2(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> Fraction:
    """Verify REQ2: ``R(S_ic)`` is measurable with positive measure.

    Returns ``mu_A(R(S_ic))`` on success; raises :class:`Req2Error`.
    """
    sample_set = frozenset(sample)
    tree = check_req1(psys, point, sample_set)
    runs = tree.runs_through(sample_set)
    space = psys.run_space(tree.adversary)
    try:
        # one event -> mask conversion decides measurability and measure
        measure = space.measure(runs)
    except NotMeasurableError:
        raise Req2Error("the runs through the sample space are not measurable") from None
    if measure <= ZERO:
        raise Req2Error("the runs through the sample space have measure zero")
    return measure


def requirement_defects(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> List[str]:
    """Every REQ1/REQ2 defect of one sample space, as messages (Section 5).

    The non-raising counterpart of :func:`check_req2`, used by
    :func:`repro.robustness.validate.validate_assignment` to aggregate
    violations across all (agent, point) pairs instead of stopping at the
    first :class:`Req1Error`/:class:`Req2Error`.  An empty list means the
    sample satisfies both requirements at this point.
    """
    sample_set = frozenset(sample)
    defects: List[str] = []
    try:
        tree = psys.tree_of(point)
    except Exception as error:
        return [f"REQ1: the point belongs to no computation tree ({error})"]
    outside = [member for member in sample_set if not tree.contains_point(member)]
    if outside:
        defects.append(
            f"REQ1: {len(outside)} sample point(s) lie outside T(c) "
            f"(adversary {tree.adversary!r})"
        )
    inside = frozenset(member for member in sample_set if tree.contains_point(member))
    if not inside:
        defects.append("REQ2: no sample point lies in T(c), so R(S) is empty")
        return defects
    runs = tree.runs_through(inside)
    space = psys.run_space(tree.adversary)
    if not space.is_measurable(runs):
        defects.append("REQ2: the runs through the sample space are not measurable")
    elif space.measure(runs) <= ZERO:
        defects.append("REQ2: the runs through the sample space have measure zero")
    return defects


def check_req2_state_generated(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> bool:
    """Proposition 1: a state-generated sample satisfying REQ1 satisfies REQ2.

    Returns True iff the hypothesis holds (state generated and REQ1), in
    which case the conclusion is checked by actually running
    :func:`check_req2` -- so a ``True`` return certifies both the
    proposition's hypothesis and its conclusion for this instance.
    """
    sample_set = frozenset(sample)
    if not sample_set:
        return False
    if not state_generated_point_set(psys.system, sample_set):
        return False
    try:
        check_req1(psys, point, sample_set)
    except Req1Error:
        return False
    check_req2(psys, point, sample_set)  # raises if Proposition 1 were false
    return True


# ----------------------------------------------------------------------
# The induced probability space (Proposition 2)
# ----------------------------------------------------------------------


def project_runs(runs: Iterable[Run], sample: Iterable[Point]) -> PointSet:
    """``Proj(R', S) = { (r, k) in S : r in R' }`` (Section 5)."""
    run_set = frozenset(runs)
    return frozenset(point for point in sample if point.run in run_set)


def induced_point_space(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> FiniteProbabilitySpace:
    """The probability space ``P_ic`` induced on a sample space.

    Atoms of ``X_ic`` are projections of the run-space atoms onto the
    sample; with the (default) powerset run algebra, the atom for run ``r``
    is the set of sample points lying on ``r`` -- one atom per run, which in
    asynchronous systems may contain several points (this is exactly the
    source of Section 7's non-measurability).  The measure conditions
    ``mu_A`` on ``R(S_ic)``.
    """
    sample_set = frozenset(sample)
    tree = psys.tree_of(point)
    run_space = psys.run_space(tree.adversary)
    # group the sample by run once: REQ1, REQ2 and the projection all
    # read this grouping instead of each walking the sample again
    points_on_run: Dict[Run, List[Point]] = {}
    for member in sample_set:
        points_on_run.setdefault(member.run, []).append(member)
    # REQ1: each distinct run is a run of T(c), each point within its run
    for run, members in points_on_run.items():
        on_tree = tree.has_run(run)
        horizon = run.horizon
        for member in members:
            if not on_tree or member.time >= horizon:
                raise Req1Error(
                    f"sample point {member!r} lies outside T(c) "
                    f"(adversary {tree.adversary!r})"
                )
    # REQ2 and the projection in one loop over the run atoms.  R(S_ic) is
    # measurable iff every run atom it meets lies wholly inside it; its
    # measure is then the summed atom weight, which conditioning divides
    # by, in integer form, with no per-atom Fraction division.  Distinct
    # run atoms project to disjoint point sets covering the sample (each
    # point lies on exactly one run), so the projections partition it.
    atoms: List[PointSet] = []
    weights: List[int] = []
    total_weight = 0
    on_run = points_on_run.get
    for run_atom, weight in zip(run_space.atoms, run_space.atom_weights):
        met = 0
        projected: List[Point] = []
        for run in run_atom:
            members = on_run(run)
            if members is not None:
                met += 1
                projected += members
        if not met:
            continue
        if met != len(run_atom):
            raise Req2Error("the runs through the sample space are not measurable")
        atoms.append(frozenset(projected))
        weights.append(weight)
        total_weight += weight
    if total_weight <= 0:
        raise Req2Error("the runs through the sample space have measure zero")
    return FiniteProbabilitySpace._from_atom_weights(
        tuple(atoms),
        tuple(weights),
        total_weight,
        outcomes=sample_set,
        interval_cache_maxsize=psys.interval_cache_maxsize,
    )


# ----------------------------------------------------------------------
# Sample-space assignments
# ----------------------------------------------------------------------


class SampleSpaceAssignment:
    """A function ``S`` from (agent, point) to a sample space of points.

    Subclasses implement :meth:`sample_space`.  The assignment is bound to a
    probabilistic system so that its properties (consistency, uniformity,
    the lattice order) are decidable by enumeration.
    """

    def __init__(self, psys: ProbabilisticSystem, name: Optional[str] = None) -> None:
        self.psys = psys
        self.name = name or type(self).__name__

    def sample_space(self, agent: int, point: Point) -> PointSet:
        """``S(i, c) = S_ic``; must satisfy REQ1 and REQ2."""
        raise NotImplementedError

    # -- paper's structural properties ---------------------------------

    def is_consistent(self) -> bool:
        """``S_ic subseteq K_i(c)`` everywhere (Section 5).

        Consistency characterises the axiom ``K_i(phi) => Pr_i(phi) = 1``.
        """
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                if not self.sample_space(agent, point) <= system.knowledge_set(agent, point):
                    return False
        return True

    def is_state_generated(self) -> bool:
        """Every ``S_ic`` contains all points sharing a member's global state."""
        system = self.psys.system
        return all(
            state_generated_point_set(system, self.sample_space(agent, point))
            for agent in system.agents
            for point in system.points
        )

    def is_inclusive(self) -> bool:
        """``c in S_ic`` everywhere (property (b) of Section 6)."""
        system = self.psys.system
        return all(
            point in self.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def is_uniform(self) -> bool:
        """``d in S_ic`` implies ``S_id = S_ic`` (property (c) of Section 6)."""
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                sample = self.sample_space(agent, point)
                for other in sample:
                    if self.sample_space(agent, other) != sample:
                        return False
        return True

    def is_standard(self) -> bool:
        """State generated + inclusive + uniform (Section 6)."""
        return self.is_state_generated() and self.is_inclusive() and self.is_uniform()

    def satisfies_requirements(self) -> bool:
        """REQ1 and REQ2 hold at every (agent, point)."""
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                try:
                    check_req2(self.psys, point, self.sample_space(agent, point))
                except (Req1Error, Req2Error):
                    return False
        return True

    # -- the lattice order (Section 6) ---------------------------------

    def leq(self, other: "SampleSpaceAssignment") -> bool:
        """``S <= S'`` iff ``S_ic subseteq S'_ic`` for every agent and point."""
        system = self.psys.system
        return all(
            self.sample_space(agent, point) <= other.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def lt(self, other: "SampleSpaceAssignment") -> bool:
        """Strict order: ``S <= S'`` and they differ somewhere."""
        if not self.leq(other):
            return False
        system = self.psys.system
        return any(
            self.sample_space(agent, point) != other.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class ExplicitAssignment(SampleSpaceAssignment):
    """An assignment given by an explicit table ``(agent, point) -> sample``.

    Missing entries default to the singleton ``{c}`` so that partial tables
    (as in the Section 5 coin/die examples) stay total.
    """

    def __init__(
        self,
        psys: ProbabilisticSystem,
        table: Mapping[Tuple[int, Point], Iterable[Point]],
        name: Optional[str] = None,
        default_to_singleton: bool = True,
    ) -> None:
        super().__init__(psys, name)
        self._table: Dict[Tuple[int, Point], PointSet] = {
            key: frozenset(value) for key, value in table.items()
        }
        self._default_to_singleton = default_to_singleton

    def sample_space(self, agent: int, point: Point) -> PointSet:
        key = (agent, point)
        if key in self._table:
            return self._table[key]
        if self._default_to_singleton:
            return frozenset([point])
        raise KeyError(f"no sample space for agent {agent} at {point!r}")


class FunctionAssignment(SampleSpaceAssignment):
    """An assignment computed by an arbitrary function of (agent, point)."""

    def __init__(
        self,
        psys: ProbabilisticSystem,
        function: Callable[[int, Point], Iterable[Point]],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(psys, name)
        self._function = function

    def sample_space(self, agent: int, point: Point) -> PointSet:
        return frozenset(self._function(agent, point))


# ----------------------------------------------------------------------
# Probability assignments
# ----------------------------------------------------------------------


class ProbabilityAssignment:
    """The probability assignment induced by a sample-space assignment.

    ``P_ic`` is built by :func:`induced_point_space` and cached.  Because a
    uniform assignment reuses the same sample at every member point, spaces
    are cached by ``(agent, T(c), sample)`` rather than ``(agent, point)``;
    the tree is part of the key because REQ1 checks the sample against
    ``T(c)``, so a point of another tree must not reuse a space that passed.

    Every probability query takes one path (:meth:`_query`): it evaluates
    ``S_ic`` once and looks up the memo keyed by ``(agent, T(c), S_ic,
    fact)`` holding the space, the event ``S_ic(phi)`` and the event's
    mask in that space, then answers through the space's mask-level
    kernels.  So a fact is restricted and converted to a mask once per
    sample, not once per point.  The memo holds no measure results: those
    stay in each space's interval cache.
    """

    def __init__(self, ssa: SampleSpaceAssignment, name: Optional[str] = None) -> None:
        self.ssa = ssa
        self.psys = ssa.psys
        self.name = name or ssa.name
        self._space_cache: Dict[Tuple[int, Hashable, PointSet], FiniteProbabilitySpace] = {}
        self._event_cache: Dict[Tuple[Fact, PointSet], PointSet] = {}
        self._query_cache: Dict[
            Tuple[int, Hashable, PointSet, Fact],
            Tuple[FiniteProbabilitySpace, PointSet, Optional[int]],
        ] = {}

    # -- spaces ----------------------------------------------------------

    def sample_space(self, agent: int, point: Point) -> PointSet:
        """``S_ic``."""
        return self.ssa.sample_space(agent, point)

    def space(self, agent: int, point: Point) -> FiniteProbabilitySpace:
        """``P_ic = (S_ic, X_ic, mu_ic)``."""
        return self._space(agent, point, self.ssa.sample_space(agent, point))

    def _space(self, agent: int, point: Point, sample: PointSet) -> FiniteProbabilitySpace:
        key = (agent, self.psys.adversary_of(point), sample)
        space = self._space_cache.get(key)
        if space is None:
            space = induced_point_space(self.psys, point, sample)
            self._space_cache[key] = space
        return space

    # -- probabilities at a point ----------------------------------------

    def satisfying_points(self, agent: int, point: Point, fact: Fact) -> PointSet:
        """``S_ic(phi)``: the sample points where the fact holds (Section 5).

        Cached per (fact, sample space): uniform assignments reuse one
        sample across many points, and facts are immutable in practice, so
        the cache turns repeated interval queries from quadratic to linear
        in the system size.  :class:`Fact` hashes and compares by identity,
        so keying by the fact object itself is exactly the old
        ``id(fact)``-keyed scheme without the id-recycling hazard (and
        without the keep-alive workaround it required).
        """
        return self._event(fact, self.ssa.sample_space(agent, point))

    def _event(self, fact: Fact, sample: PointSet) -> PointSet:
        key = (fact, sample)
        cached = self._event_cache.get(key)
        if cached is None:
            cached = fact.restricted_to(sample)
            self._event_cache[key] = cached
        return cached

    def _query(
        self, agent: int, point: Point, fact: Fact
    ) -> Tuple[FiniteProbabilitySpace, PointSet, Optional[int]]:
        """``(P_ic, S_ic(phi), mask)`` for one query; ``S_ic`` is evaluated once.

        Keyed like the space cache plus the fact, so a point of another
        tree builds (and REQ1-checks) its own space, and a fact hashes by
        identity.  The mask indexes the event in that very space object;
        it is ``None`` on the naive backend, which has no index.
        """
        sample = self.ssa.sample_space(agent, point)
        key = (agent, self.psys.adversary_of(point), sample, fact)
        query = self._query_cache.get(key)
        if query is None:
            space = self._space(agent, point, sample)
            event = self._event(fact, sample)
            mask = None if space.backend == "naive" else space.event_mask(event)
            query = (space, event, mask)
            self._query_cache[key] = query
        return query

    def is_measurable_at(self, agent: int, point: Point, fact: Fact) -> bool:
        """True iff ``S_ic(phi)`` is measurable in ``P_ic``."""
        space, event, mask = self._query(agent, point, fact)
        if mask is None:
            return space.is_measurable(event)
        return space.is_measurable_mask(mask)

    def is_measurable(self, fact: Fact) -> bool:
        """Measurable with respect to the assignment: at every agent/point."""
        system = self.psys.system
        return all(
            self.is_measurable_at(agent, point, fact)
            for agent in system.agents
            for point in system.points
        )

    def probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``mu_ic(S_ic(phi))``; raises if the fact is not measurable at c."""
        space, event, mask = self._query(agent, point, fact)
        if mask is None:
            measurable = space.is_measurable(event)
        else:
            measurable = space.is_measurable_mask(mask)
        if not measurable:
            raise NotMeasurableError(
                f"{fact.name} is not measurable for agent {agent} here; "
                "use inner_probability / outer_probability"
            )
        if mask is None:
            return space.measure(event)
        return space.measure_mask(mask)

    def inner_probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``(mu_ic)_*(S_ic(phi))`` -- the semantics of ``Pr_i(phi) >= alpha``."""
        space, event, mask = self._query(agent, point, fact)
        if mask is None:
            return space.inner_measure(event)
        return space.inner_measure_mask(mask)

    def outer_probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``(mu_ic)^*(S_ic(phi))``."""
        space, event, mask = self._query(agent, point, fact)
        if mask is None:
            return space.outer_measure(event)
        return space.outer_measure_mask(mask)

    def probability_interval(
        self, agent: int, point: Point, fact: Fact
    ) -> Tuple[Fraction, Fraction]:
        """``(inner, outer)`` measure of the fact at the point."""
        space, event, mask = self._query(agent, point, fact)
        if mask is None:
            return space.measure_interval(event)
        return space.measure_interval_mask(mask)

    # -- probabilistic knowledge ------------------------------------------

    def pr_at_least(self, agent: int, point: Point, fact: Fact, alpha) -> bool:
        """``(P, c) |= Pr_i(phi) >= alpha`` (inner-measure semantics)."""
        from ..probability.fractionutil import as_fraction

        return self.inner_probability(agent, point, fact) >= as_fraction(alpha)

    def knows_probability_at_least(self, agent: int, point: Point, fact: Fact, alpha) -> bool:
        """``(P, c) |= K_i^alpha phi``: ``Pr_i(phi) >= alpha`` at every point
        the agent considers possible at ``c``."""
        from ..probability.fractionutil import as_fraction

        threshold = as_fraction(alpha)
        system = self.psys.system
        return all(
            self.inner_probability(agent, candidate, fact) >= threshold
            for candidate in system.knowledge_set(agent, point)
        )

    def knows_probability_interval(
        self, agent: int, point: Point, fact: Fact, alpha, beta
    ) -> bool:
        """``(P, c) |= K_i^[alpha,beta] phi``.

        Per Section 6 this abbreviates
        ``K_i[(Pr_i(phi) >= alpha) & (Pr_i(~phi) >= 1 - beta)]``: inner
        measure of the fact at least ``alpha`` and outer measure at most
        ``beta``, at every point the agent considers possible.
        """
        from ..probability.fractionutil import as_fraction

        low = as_fraction(alpha)
        high = as_fraction(beta)
        system = self.psys.system
        for candidate in system.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            if inner < low or outer > high:
                return False
        return True

    def knowledge_interval(self, agent: int, point: Point, fact: Fact) -> Tuple[Fraction, Fraction]:
        """The sharpest ``[alpha, beta]`` with ``K_i^[alpha,beta] phi`` at ``c``."""
        from ..probability.fractionutil import ONE, ZERO

        low = ONE
        high = ZERO
        system = self.psys.system
        for candidate in system.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            low = min(low, inner)
            high = max(high, outer)
        return low, high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbabilityAssignment({self.name})"
