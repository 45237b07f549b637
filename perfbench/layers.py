"""Per-layer attribution for the traced benchmark run, from outside the library.

The library itself carries spans only at the sweep and engine level, so
the traced run wraps the public entry points of every layer of the
pipeline (simulate -> tree build -> knowledge index -> induced point
spaces -> measure kernels -> gfp -> sweep engine -> obs/audit) from
here.  Each wrapper opens a span on whatever recorder the library
currently reports to:

* in the benchmark process that is a :class:`BenchRecorder`;
* in a pool worker the library's own worker-delta capture
  (``repro.obs.snapshot.ObsDeltaCapture``) installs a fresh
  ``MetricsRecorder``, and the span totals travel home inside the
  ``worker_obs_delta`` events the parent already receives.

Wrappers are installed before any pool forks, so forked workers carry
them.  :func:`uninstall` puts every original back, which lets the
benchmark alternate untraced and traced executions of the same op.

Self time is derived from hierarchical span paths (``a/b/c``): a layer
span's self time is its total minus the totals of the layer spans
directly below it.  Spans the library records itself (``sweep_row``,
``run_tasks``, ``parallel_map`` ...) are transparent: their time belongs
to the nearest enclosing layer span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRecorder
from repro.obs.recorder import get_recorder

#: Span names this module opens, in pipeline order, each with the entry
#: points it wraps (``module:attribute`` or ``module:Class.attribute``).
#: A target missing from the library is skipped and reported, so a later
#: refactor that removes an entry point reads as a zero, never a crash.
LAYER_TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("trees.build_tree", ("repro.trees.builder:build_tree",)),
    ("trees.tree_index", ("repro.trees.tree:ComputationTree.__init__",)),
    ("trees.psys_init", ("repro.trees.probabilistic_system:ProbabilisticSystem.__init__",)),
    ("core.system_index", ("repro.core.model:System.__init__",)),
    ("core.assignment_index", ("repro.core.standard:_TreeIndexed.__init__",)),
    ("core.induced_point_space", ("repro.core.assignments:induced_point_space",)),
    ("core.fact_restrict", ("repro.core.facts:Fact.restricted_to",)),
    (
        "probability.space_init",
        (
            "repro.probability.space:FiniteProbabilitySpace.__init__",
            "repro.probability.space:FiniteProbabilitySpace._from_checked_partition",
            "repro.probability.space:FiniteProbabilitySpace._from_atom_weights",
        ),
    ),
    (
        "probability.measure",
        tuple(
            f"repro.probability.space:FiniteProbabilitySpace.{name}"
            for name in (
                "is_measurable",
                "measure",
                "inner_measure",
                "outer_measure",
                "measure_interval",
                "is_measurable_mask",
                "measure_mask",
                "inner_measure_mask",
                "outer_measure_mask",
                "measure_interval_mask",
            )
        ),
    ),
    (
        "logic.extension",
        ("repro.logic.semantics:Model.extension", "repro.logic.semantics:Model.extension_mask"),
    ),
    ("logic.explain", ("repro.logic.semantics:Model.explain",)),
    (
        "core.cuts.enumerate",
        tuple(
            f"repro.core.cuts:{name}"
            for name in (
                "enumerate_point_cuts",
                "enumerate_partial_cuts",
                "enumerate_state_cuts",
                "enumerate_banded_cuts",
                "enumerate_horizontal_cuts",
            )
        ),
    ),
    ("attack.post_threshold", ("repro.attack.sweep:post_threshold",)),
    ("attack.guarantee_sweep", ("repro.attack.sweep:guarantee_sweep",)),
    ("attack.parallel_guarantee_sweep", ("repro.attack.parallel:parallel_guarantee_sweep",)),
    (
        "robustness.robust_guarantee_sweep",
        ("repro.robustness.checkpoint:robust_guarantee_sweep",),
    ),
    ("robustness.checkpoint.append", ("repro.robustness.checkpoint:SweepCheckpoint.append",)),
    ("obs.audit.append", ("repro.robustness.checkpoint:_audit_append",)),
    ("futures.wait", ("concurrent.futures:Future.result",)),
)

LAYERS = frozenset(name for name, _targets in LAYER_TARGETS)

#: Generator entry points: their span covers each ``next`` step, so the
#: consumer's work between two cuts is not charged to enumeration.
GENERATOR_LAYERS = frozenset({"core.cuts.enumerate"})

#: Counters the wrappers add (the library's own counters ride along).
POINTS_COUNTER = "bench.core.points"
CUTS_COUNTER = "bench.core.cuts.enumerated"
AUDIT_REBUILDS_COUNTER = "bench.obs.audit.rebuilds"

#: Names of the layer spans open in this process, innermost last.  A
#: wrapper whose innermost open layer has its own name calls straight
#: through, so a layer calling its own public entry points (``measure``
#: -> ``measure_mask``) counts once.
_open: List[str] = []


def _span_wrapper(name: str, function: Callable, after=None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if _open and _open[-1] == name:
            return function(*args, **kwargs)
        recorder = get_recorder()
        _open.append(name)
        try:
            with recorder.span(name):
                result = function(*args, **kwargs)
        finally:
            _open.pop()
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _generator_wrapper(name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if _open and _open[-1] == name:
            yield from function(*args, **kwargs)
            return
        iterator = function(*args, **kwargs)
        while True:
            recorder = get_recorder()
            _open.append(name)
            try:
                with recorder.span(name):
                    item = next(iterator)
            except StopIteration:
                return
            finally:
                _open.pop()
            recorder.counter(CUTS_COUNTER)
            yield item

    return wrapper


def _count_points(recorder, args, _result) -> None:
    recorder.counter(POINTS_COUNTER, len(args[0].points))


#: Per-layer hooks run after the wrapped call, for counts a span lacks.
AFTER_HOOKS = {"core.system_index": _count_points}


def _count_audit_rebuild(function: Callable) -> Callable:
    """``protocol_system`` counted when the parent calls it while auditing."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if "obs.audit.append" in _open:
            get_recorder().counter(AUDIT_REBUILDS_COUNTER)
        return function(*args, **kwargs)

    return wrapper


class Installation:
    """The wrappers currently installed, and how to put the originals back."""

    def __init__(self) -> None:
        #: (owner, attribute, original raw value) in installation order.
        self.patches: List[Tuple[object, str, object]] = []
        #: (dict, key, original value) for references held in module dicts.
        self.dict_patches: List[Tuple[dict, object, object]] = []
        #: Targets that do not exist in this version of the library.
        self.missing: List[str] = []

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self.dict_patches):
            mapping[key] = original
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches.clear()
        self.dict_patches.clear()


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attribute):
        raise AttributeError(target)
    return owner, attribute


def _repro_modules() -> Iterable[object]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _replace_everywhere(install: Installation, original, wrapper) -> None:
    """Rebind every module-level reference to ``original`` in ``repro``.

    ``from x import f`` copies the binding into the importing module and
    lookup tables (``CUT_CLASSES``) hold their own references, so patching
    the defining module alone would miss most call sites.
    """
    for module in _repro_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                install.patches.append((module, key, value))
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for entry, member in list(value.items()):
                    if member is original:
                        install.dict_patches.append((value, entry, member))
                        value[entry] = wrapper


def install() -> Installation:
    """Wrap every layer entry point; returns the handle that undoes it."""
    installation = Installation()
    for name, targets in LAYER_TARGETS:
        for target in targets:
            try:
                owner, attribute = _resolve(target)
            except (ImportError, AttributeError):
                installation.missing.append(target)
                continue
            if inspect.isclass(owner):
                raw = vars(owner).get(attribute)
                if raw is None:
                    installation.missing.append(target)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_span_wrapper(name, raw.__func__))
                else:
                    wrapped = _span_wrapper(name, raw, AFTER_HOOKS.get(name))
                installation.patches.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
            else:
                original = getattr(owner, attribute)
                if name in GENERATOR_LAYERS:
                    wrapped = _generator_wrapper(name, original)
                else:
                    wrapped = _span_wrapper(name, original)
                _replace_everywhere(installation, original, wrapped)
    try:
        owner, attribute = _resolve("repro.systems.synchronous:protocol_system")
    except (ImportError, AttributeError):
        installation.missing.append("repro.systems.synchronous:protocol_system")
    else:
        original = getattr(owner, attribute)
        _replace_everywhere(installation, original, _count_audit_rebuild(original))
    return installation


class BenchRecorder(MetricsRecorder):
    """``MetricsRecorder`` that also keeps the span totals workers ship.

    ``merge_worker_delta`` hands each worker's span totals to the parent
    only inside a ``worker_obs_delta`` event; a plain metrics recorder
    counts the event and drops them.
    """

    __slots__ = ("worker_spans",)

    def __init__(self) -> None:
        super().__init__()
        self.worker_spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])

    def event(self, kind: str, **fields) -> None:
        super().event(kind, **fields)
        if kind == "worker_obs_delta":
            for path, stats in (fields.get("spans") or {}).items():
                entry = self.worker_spans[path]
                entry[0] += int(stats.get("count", 0))
                entry[1] += float(stats.get("total_seconds", 0.0))


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

SpanTable = Mapping[str, Tuple[int, float]]


def _layer_owner(parts: List[str], layers: frozenset) -> Optional[str]:
    for part in reversed(parts[:-1]):
        if part in layers:
            return part
    return None


def self_times(spans: SpanTable, layers: frozenset = LAYERS) -> Dict[str, float]:
    """Per layer: total span time minus the layer spans directly inside it.

    ``spans`` maps a hierarchical path to ``(count, total_seconds)``.
    Non-layer path components are transparent.
    """
    result: Dict[str, float] = defaultdict(float)
    for path, (_count, total) in spans.items():
        parts = path.split("/")
        name = parts[-1]
        if name not in layers:
            continue
        result[name] += total
        owner = _layer_owner(parts, layers)
        if owner is not None:
            result[owner] -= total
    return dict(result)


def span_totals(spans: SpanTable, layers: frozenset = LAYERS) -> Dict[str, Tuple[int, float]]:
    """Per layer: (calls, total seconds) summed over every path ending in it."""
    result: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for path, (count, total) in spans.items():
        name = path.split("/")[-1]
        if name in layers:
            result[name][0] += count
            result[name][1] += total
    return {name: (int(count), total) for name, (count, total) in result.items()}


def covered_seconds(spans: SpanTable, layers: frozenset = LAYERS) -> float:
    """Time covered by outermost layer spans (those with no layer above)."""
    return sum(
        total
        for path, (_count, total) in spans.items()
        if path.split("/")[-1] in layers and _layer_owner(path.split("/"), layers) is None
    )


def seconds_under(spans: SpanTable, ancestor: str, name: str) -> float:
    """Total time of spans named ``name`` nested anywhere under ``ancestor``."""
    return sum(
        total
        for path, (_count, total) in spans.items()
        if path.split("/")[-1] == name and ancestor in path.split("/")[:-1]
    )


def recorder_spans(recorder) -> Dict[str, Tuple[int, float]]:
    """The parent-side span table of a ``MetricsRecorder``."""
    return {
        path: (stats.count, stats.total_seconds) for path, stats in recorder.spans.items()
    }


def merged_spans(*tables: SpanTable) -> Dict[str, Tuple[int, float]]:
    """Sum span tables path by path (the arithmetic above is linear)."""
    result: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for table in tables:
        for path, (count, total) in table.items():
            result[path][0] += count
            result[path][1] += total
    return {path: (int(count), total) for path, (count, total) in result.items()}
