"""Per-layer tracing from outside the program: wrap each layer's public
functions, record counts, busy time and self time, then restore them.

Nothing under ``src/`` is edited.  :class:`Tracer.install` replaces each
layer's public functions and methods with timing wrappers -- module
functions in every loaded ``repro`` module that binds them, methods at
class level on the class that defines them -- and
:meth:`Tracer.uninstall` puts every original object back.

Accounting: a wrapped call is a span.  A layer's *busy* time sums its
outermost spans (a layer re-entered from inside itself is not counted
twice); its *self* time subtracts the spans of other layers that ran
inside it, e.g. ``interaction.apply`` minus the simulator's delta.  Time
covered by spans that have no parent span is the *root* time; a pass's
wall time minus its root time is the unattributed remainder.

Process fan-out: under the ``fork`` start method the pool workers inherit
the installed wrappers.  The worker entry functions (``run_spec_batch``
and ``run_spec_batch_shm``) are wrapped to return the worker's own stats
delta with each batch (:class:`WorkerResult`), which the parent unwraps in
its future proxy and merges, so engine, scheduler, adversary, apply and
delta layers of worker-side runs are counted too (summed over workers:
their busy times can add up to more than the parent's wall time).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

perf_counter = time.perf_counter

#: The transition-function methods that count as a program's delta.
DELTA_METHODS = ("f", "g", "fs", "fr", "on_reactor_omission", "on_starter_omission")


class WorkerResult(NamedTuple):
    """A pool worker's batch payload plus the stats it recorded making it."""

    payload: Any
    stats: Dict[str, float]


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, depth first, each once."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Installs the layer wrappers and accumulates their stats.

    ``stats`` maps ``<layer>.busy_s``, ``<layer>.self_s``, ``<layer>.calls``
    and per-layer counters (e.g. ``engine.steps``) to numbers.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, float] = defaultdict(float)
        self._root = [0.0]
        self._stack: List[List[float]] = []
        self._open: Dict[str, bool] = defaultdict(bool)
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def root_s(self) -> float:
        """Time covered by spans that ran with no parent span."""
        return self._root[0]

    # -- span accounting -----------------------------------------------------

    def wrap(self, fn: Callable, layer: str, *, extra: Tuple[str, ...] = (),
             on_result: Optional[Callable[[Dict[str, float], Any], None]] = None
             ) -> Callable:
        """A timing wrapper of ``fn`` that records one span of ``layer``.

        The span bookkeeping is inlined: the wrapper runs once per delta
        and apply call, so its own cost is most of the tracing overhead.
        """
        is_open = self._open
        stack = self._stack
        stats = self.stats
        root = self._root
        calls_key, busy_key, self_key = (layer + ".calls", layer + ".busy_s",
                                         layer + ".self_s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[layer]:
                return fn(*args, **kwargs)
            is_open[layer] = True
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                is_open[layer] = False
                stats[calls_key] += 1
                stats[busy_key] += elapsed
                stats[self_key] += elapsed - frame[0]
                for key in extra:
                    stats[key] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    root[0] += elapsed
            if on_result is not None:
                on_result(stats, result)
            return result

        return wrapper

    def call(self, layer: str, fn: Callable, *args: Any) -> Any:
        """``fn(*args)``, recorded as one span of ``layer``."""
        return self.wrap(fn, layer)(*args)

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name``; a class reached through two bases is wrapped once."""
        if any(patched is owner and attribute == name
               for patched, attribute, _ in self._patches):
            return
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, fn: Callable, layer: str, **options) -> None:
        """Rebind ``fn`` to its wrapper in every module that holds it."""
        wrapper = self.wrap(fn, layer, **options)
        for module in _traced_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is fn:
                    self._patch(module, name, wrapper)

    def _patch_methods(self, base: type, names: Tuple[str, ...], layer: str,
                       **options) -> None:
        """Wrap ``names`` on ``base`` and every subclass that defines them."""
        for cls in _subclasses(base):
            for name in names:
                raw = vars(cls).get(name)
                if inspect.isfunction(raw):
                    self._patch(cls, name, self.wrap(raw, layer, **options))

    def install(self) -> None:
        """Wrap every traced layer's public functions (see :func:`_install_layers`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            _install_layers(self)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """The ``(owner, name, original)`` triples currently replaced."""
        return list(self._patches)

    # -- worker stats ------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        return dict(self.stats)

    def merge(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self.stats[key] += value

    def reset(self) -> None:
        self.stats.clear()
        self._root[0] = 0.0

    def _worker_entry(self, fn: Callable) -> Callable:
        """Wrap a pool worker function to ship its stats delta home."""
        tracer = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if tracer._open["worker"]:
                return fn(*args, **kwargs)
            # A forked worker inherits the parent's open spans; its own
            # spans start from an empty stack.
            tracer._stack.clear()
            tracer._open.clear()
            before = tracer.snapshot()
            tracer._open["worker"] = True
            try:
                payload = fn(*args, **kwargs)
            finally:
                tracer._open["worker"] = False
            after = tracer.stats
            delta = {key: after[key] - before.get(key, 0.0) for key in after
                     if after[key] != before.get(key, 0.0)}
            return WorkerResult(payload, delta)

        return entry


def _traced_modules() -> List[Any]:
    """Loaded ``repro`` modules: their namespaces may bind a traced function."""
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------


def _count_steps(stats, result) -> None:
    stats["engine.steps"] += result.steps_executed
    stats["engine.converged"] += bool(result.converged)


def _count_drawn_list(stats, result) -> None:
    stats["scheduling.drawn"] += len(result)


def _count_drawn_columns(stats, result) -> None:
    stats["scheduling.drawn"] += len(result[0])


def _count_plan(stats, result) -> None:
    stats["adversary.injections"] += len(result.interactions) - result.consumed


def _count_columns(stats, result) -> None:
    stats["adversary.injections"] += len(result.starters)


def _delta_family(cls: type) -> str:
    from repro.core.naming import KnownSizeSimulator
    from repro.core.skno import SKnOSimulator

    if issubclass(cls, SKnOSimulator):
        return "core.skno.delta_s"
    if issubclass(cls, KnownSizeSimulator):
        return "core.nn.delta_s"
    return "core.other.delta_s"


def _install_layers(tracer: Tracer) -> None:
    import repro  # noqa: F401  (loads every package the layers live in)
    import repro.campaign.runner as runner
    import repro.engine.experiment as experiment
    import repro.protocols.catalog  # noqa: F401
    import repro.scheduling.graph_scheduler  # noqa: F401
    from repro.adversary.omission import OmissionAdversary
    from repro.campaign.planner import plan_campaign
    from repro.campaign.report import render_report
    from repro.campaign.store import _BaseStore
    from repro.core.base import TwoWaySimulator
    from repro.engine.convergence import run_until_stable
    from repro.engine.fastpath import IncrementalPredicate
    from repro.engine.transport import decode_batch
    from repro.interaction.models import InteractionModel
    from repro.protocols.protocol import OneWayProtocol, PopulationProtocol
    from repro.protocols.registry import ExperimentSpec, resolve_backend, resolved_spec
    from repro.scheduling.scheduler import Scheduler

    # campaign
    tracer._patch_function(plan_campaign, "campaign.plan")
    tracer._patch_function(runner.build_cell_record, "campaign.cell")
    tracer._patch_methods(_BaseStore, ("append_cell",), "campaign.store_append")
    tracer._patch_function(render_report, "campaign.report")
    # engine.experiment and engine.transport
    tracer._patch_function(experiment.repeat_experiment, "experiment.repeat")
    tracer._patch(experiment, "ProcessPoolExecutor",
                  _traced_pool(tracer, experiment.ProcessPoolExecutor))
    for name in ("run_spec_batch", "run_spec_batch_shm"):
        tracer._patch(experiment, name, tracer._worker_entry(getattr(experiment, name)))
    tracer._patch_function(decode_batch, "transport.decode")
    # protocols.registry
    tracer._patch_methods(ExperimentSpec, ("build",), "registry.build")
    tracer._patch_function(resolve_backend, "registry.resolve")
    tracer._patch_function(resolved_spec, "registry.resolve")
    # engine
    tracer._patch_function(run_until_stable, "engine.run", on_result=_count_steps)
    # scheduling
    tracer._patch_methods(Scheduler, ("next_interactions",), "scheduling.draw",
                          on_result=_count_drawn_list)
    # adversary
    tracer._patch_methods(OmissionAdversary, ("plan_interactions",),
                          "adversary.plan", on_result=_count_plan)
    tracer._patch_methods(OmissionAdversary, ("plan_chunk_schedule_columns",),
                          "adversary.plan", on_result=_count_columns)
    # interaction
    tracer._patch_methods(InteractionModel, ("apply",), "interaction.apply")
    # core: every program's delta, split by simulator family
    for base in (PopulationProtocol, OneWayProtocol, TwoWaySimulator):
        for cls in _subclasses(base):
            family = _delta_family(cls)
            for name in DELTA_METHODS:
                raw = vars(cls).get(name)
                if inspect.isfunction(raw):
                    tracer._patch(cls, name, tracer.wrap(
                        raw, "core.delta", extra=(family,)))
    # engine.fastpath predicates
    tracer._patch_methods(IncrementalPredicate, ("update",), "predicate.update")
    # engine.backends.array_backend (needs numpy; absent without it)
    try:
        from repro.engine.backends import array_backend
        from repro.scheduling.array_draws import ArrayDrawKernel, compile_scheduler
    except ImportError:
        return
    for fn in (array_backend.compile_program, compile_scheduler,
               array_backend.compile_adversary):
        tracer._patch_function(fn, "array.compile")
    tracer._patch_methods(ArrayDrawKernel, ("draw",), "scheduling.draw",
                          on_result=_count_drawn_columns)
    tracer._patch_methods(array_backend.ArrayBackend, ("run_until_stable", "execute"),
                          "array.columnar")


# ---------------------------------------------------------------------------
# process pool proxy
# ---------------------------------------------------------------------------


def _traced_pool(tracer: Tracer, pool_class: type) -> type:
    """A stand-in for ``ProcessPoolExecutor`` that times the pool's life.

    ``experiment.pool_start`` covers construction, the first ``submit``
    (which launches the workers) and the shutdown on exit;
    ``experiment.batch_wait`` covers the parent blocking on a batch
    future.  Batches arriving as :class:`WorkerResult` are unwrapped and
    their worker stats merged.
    """

    class TracedPool:
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            self._pool = tracer.call("experiment.pool_start",
                                     lambda: pool_class(*args, **kwargs))
            tracer.stats["experiment.pools"] += 1
            self._launched = False

        def __enter__(self) -> "TracedPool":
            return self

        def __exit__(self, *exc: Any) -> bool:
            tracer.call("experiment.pool_start", self._pool.shutdown)
            return False

        def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> "TracedFuture":
            if self._launched:
                return TracedFuture(self._pool.submit(fn, *args, **kwargs))
            self._launched = True
            return TracedFuture(tracer.call(
                "experiment.pool_start", lambda: self._pool.submit(fn, *args, **kwargs)))

    class TracedFuture:
        def __init__(self, future: Any) -> None:
            self._future = future

        def result(self, timeout: Optional[float] = None) -> Any:
            value = tracer.call("experiment.batch_wait", self._future.result, timeout)
            if isinstance(value, WorkerResult):
                tracer.merge(value.stats)
                value = value.payload
            stats = tracer.stats
            stats["transport.batches"] += 1
            overflow = getattr(value, "overflow", None)
            if overflow is None:
                stats["transport.results"] += len(value)
                stats["transport.pickle_results"] += len(value)
            else:
                stats["transport.results"] += value.count
                stats["transport.pickle_results"] += len(overflow)
            return value

        def __getattr__(self, name: str) -> Any:
            return getattr(self._future, name)

    return TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: The per-layer metrics, in report order: ``(name, unit)``.
LAYER_METRICS = (
    ("campaign.plan_s", "s"),
    ("campaign.cell_s", "s"),
    ("campaign.cells", "count"),
    ("campaign.store_append_s", "s"),
    ("campaign.report_s", "s"),
    ("experiment.repeat_s", "s"),
    ("experiment.pools", "count"),
    ("experiment.pool_start_s", "s"),
    ("experiment.batch_wait_s", "s"),
    ("transport.batches", "count"),
    ("transport.decode_s", "s"),
    ("transport.overflow_ratio", "ratio"),
    ("registry.build_s", "s"),
    ("registry.builds", "count"),
    ("registry.resolve_s", "s"),
    ("engine.run_s", "s"),
    ("engine.runs", "count"),
    ("engine.steps", "count"),
    ("engine.converged_ratio", "ratio"),
    ("engine.loop_self_s", "s"),
    ("scheduling.draw_s", "s"),
    ("scheduling.draw_calls", "count"),
    ("scheduling.drawn", "count"),
    ("scheduling.useful_ratio", "ratio"),
    ("adversary.plan_s", "s"),
    ("adversary.plan_calls", "count"),
    ("adversary.injections", "count"),
    ("interaction.apply_self_s", "s"),
    ("interaction.applies", "count"),
    ("core.delta_s", "s"),
    ("core.delta_calls", "count"),
    ("core.skno.delta_s", "s"),
    ("core.nn.delta_s", "s"),
    ("predicate.update_s", "s"),
    ("predicate.updates", "count"),
    ("array.compile_s", "s"),
    ("array.columnar_self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: Dict[str, float], *, unattributed_s: float,
                  overhead_ratio: float) -> Dict[str, float]:
    """Fold raw tracer stats into the named per-layer metrics."""
    s = defaultdict(float, stats)
    steps = s["engine.steps"]
    scheduled = max(steps - s["adversary.injections"], 0.0)
    values = {
        "campaign.plan_s": s["campaign.plan.busy_s"],
        "campaign.cell_s": s["campaign.cell.busy_s"],
        "campaign.cells": s["campaign.cell.calls"],
        "campaign.store_append_s": s["campaign.store_append.busy_s"],
        "campaign.report_s": s["campaign.report.busy_s"],
        "experiment.repeat_s": s["experiment.repeat.self_s"],
        "experiment.pools": s["experiment.pools"],
        "experiment.pool_start_s": s["experiment.pool_start.busy_s"],
        "experiment.batch_wait_s": s["experiment.batch_wait.busy_s"],
        "transport.batches": s["transport.batches"],
        "transport.decode_s": s["transport.decode.busy_s"],
        "transport.overflow_ratio": _ratio(s["transport.pickle_results"],
                                           s["transport.results"]),
        "registry.build_s": s["registry.build.busy_s"],
        "registry.builds": s["registry.build.calls"],
        "registry.resolve_s": s["registry.resolve.busy_s"],
        "engine.run_s": s["engine.run.busy_s"],
        "engine.runs": s["engine.run.calls"],
        "engine.steps": steps,
        "engine.converged_ratio": _ratio(s["engine.converged"], s["engine.run.calls"]),
        "engine.loop_self_s": s["engine.run.self_s"],
        "scheduling.draw_s": s["scheduling.draw.busy_s"],
        "scheduling.draw_calls": s["scheduling.draw.calls"],
        "scheduling.drawn": s["scheduling.drawn"],
        "scheduling.useful_ratio": _ratio(scheduled, s["scheduling.drawn"]),
        "adversary.plan_s": s["adversary.plan.busy_s"],
        "adversary.plan_calls": s["adversary.plan.calls"],
        "adversary.injections": s["adversary.injections"],
        "interaction.apply_self_s": s["interaction.apply.self_s"],
        "interaction.applies": s["interaction.apply.calls"],
        "core.delta_s": s["core.delta.busy_s"],
        "core.delta_calls": s["core.delta.calls"],
        "core.skno.delta_s": s["core.skno.delta_s"],
        "core.nn.delta_s": s["core.nn.delta_s"],
        "predicate.update_s": s["predicate.update.busy_s"],
        "predicate.updates": s["predicate.update.calls"],
        "array.compile_s": s["array.compile.busy_s"],
        "array.columnar_self_s": s["array.columnar.self_s"],
        "trace.unattributed_s": unattributed_s,
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(values) == [name for name, _ in LAYER_METRICS]
    return values
