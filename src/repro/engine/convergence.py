"""Convergence / stabilisation detection.

Population protocols compute by *stabilisation*: the outputs of all agents
eventually stop changing and agree with the value being computed.  Because
our executions are finite prefixes, convergence is detected empirically: we
drive the shared fast-path step loop (:mod:`repro.engine.fastpath`) and
declare convergence once a predicate has held over a sliding window of
consecutive configurations (the window guards against predicates that hold
transiently on the way to the true fixed point).

Predicates come in two flavours:

* a plain callable on configurations (the seed API) — re-evaluated against
  the live run buffer after every interaction, an O(n) rescan per step;
* an :class:`~repro.engine.fastpath.IncrementalPredicate` — primed once on
  the initial configuration and then fed per-step
  ``(agent, old_state, new_state)`` deltas, an O(1) check per step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from repro.engine.fastpath import DEFAULT_CHUNK_SIZE, as_incremental, make_recorder, run_core
from repro.engine.trace import Trace, TraceStep
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder
from repro.protocols.state import Configuration, MutableConfiguration, State


@dataclass
class ConvergenceResult:
    """Outcome of a :func:`run_until_stable` experiment."""

    converged: bool
    steps_executed: int
    steps_to_convergence: Optional[int]
    trace: Optional[Trace]
    final: Optional[Configuration] = None
    omissions: int = 0
    #: Trailing window of steps under the ``ring`` trace policy (empty otherwise;
    #: under ``full`` the complete step list lives on ``trace``).
    last_steps: Tuple[TraceStep, ...] = field(default=())
    #: Anonymous multiset view of the final configuration as ``(state, count)``
    #: pairs (zero counts dropped).  Set by the array backend's columnar count
    #: export and by the shared-memory result transport's decoded fast lane —
    #: whose results carry ``final=None``, which is sound because the
    #: aggregate/merge layer never consumes ``final``.  ``None`` means "not
    #: exported", not "empty".
    final_counts: Optional[Tuple[Tuple[State, int], ...]] = None

    def __post_init__(self) -> None:
        if self.final is None and self.trace is not None:
            self.final = self.trace.final_configuration

    @property
    def final_configuration(self) -> Configuration:
        return self.final


def stable_output_condition(
    program: Any, expected_output: Any, projection: Optional[Callable] = None
) -> Callable[[Configuration], bool]:
    """Build a predicate: "every agent currently outputs ``expected_output``".

    ``program`` must expose ``output(state)``.  When ``projection`` is given
    (e.g. a simulator's ``project``), states are projected before the output
    map is applied — this is how simulated protocols' outputs are read out of
    simulator configurations.

    For long runs prefer the delta-driven equivalent,
    :func:`repro.engine.fastpath.incremental_stable_output`, which avoids
    rescanning all n agents on every interaction.
    """

    def predicate(configuration: Configuration) -> bool:
        for state in configuration:
            value = state if projection is None else projection(state)
            if program.output(value) != expected_output:
                return False
        return True

    return predicate


def run_until_stable(
    engine: Any,
    initial_configuration: Configuration,
    predicate: Any,
    max_steps: int = 100_000,
    stability_window: int = 0,
    *,
    trace_policy: str = "full",
    ring_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
    materialize_final: bool = True,
) -> ConvergenceResult:
    """Run until ``predicate`` holds for ``stability_window + 1`` consecutive configurations.

    Parameters
    ----------
    predicate:
        Either a plain callable on configurations (evaluated against the
        live run buffer after every executed interaction) or an
        :class:`~repro.engine.fastpath.IncrementalPredicate` consuming
        per-step deltas.
    max_steps:
        Hard cap on the number of executed interactions.
    stability_window:
        Number of *additional* consecutive configurations (beyond the first
        satisfying one) for which the predicate must keep holding.  A window
        of 0 stops at the first satisfying configuration; protocols whose
        predicate can hold transiently should use a window of a few hundred
        interactions.
    trace_policy:
        ``"full"`` (default) records every step and returns a complete
        :class:`Trace`; ``"counts-only"`` records nothing per step (the
        result's ``trace`` is ``None``) and is the fast path for large
        populations; ``"ring"`` keeps only the last ``ring_size`` steps.
    chunk_size:
        Scheduled draws per batched scheduler call, forwarded to
        :func:`~repro.engine.fastpath.run_core` (default
        :data:`~repro.engine.fastpath.DEFAULT_CHUNK_SIZE`).  Purely a
        performance knob: results are chunking-independent.
    materialize_final:
        Advisory hint (see
        :meth:`~repro.engine.backends.base.ExecutionBackend.run_until_stable`):
        ``False`` tells a backend with a ``final_counts`` export that the
        caller will not read ``result.final``, letting it skip the O(n)
        python-object decode of the final configuration.  The python
        backend ignores the hint.

    Notes
    -----
    The returned trace covers the whole execution, including the stability
    window, so ``steps_to_convergence`` (the index of the first
    configuration of the final stable streak) can be smaller than
    ``steps_executed``.

    Every run consumes the scheduler through batched draws (bitwise
    identical to per-step draws, with adversary injections planned through
    the budget-aware batched protocol, so results are unchanged); when
    convergence stops the run mid-chunk, the scheduler — and the internal
    state of an attached adversary, which planned the chunk before the
    stop fired — may have been advanced past the last executed
    interaction (see :mod:`repro.engine.fastpath`; build a fresh
    adversary per run rather than reusing one across runs).

    Dispatch
    --------
    The run executes on the engine's execution backend
    (:mod:`repro.engine.backends`): the default ``python`` backend is the
    loop below; an engine built with ``backend="array"`` routes through the
    columnar numpy core instead (same semantics for everything it can
    compile, :class:`~repro.engine.backends.base.BackendCompileError`
    otherwise).
    """
    backend = getattr(engine, "backend", "python")
    # The per-run observability seam: one global read and one identity
    # check when telemetry is off (the NullRecorder guarantee); metrics
    # are per run, never per step, so the hot loops stay untouched.
    obs = get_recorder()
    begin = 0.0 if obs is NULL_RECORDER else time.perf_counter()
    if backend != "python":
        from repro.engine.backends import get_backend  # lazy: avoids an import cycle

        result = get_backend(backend).run_until_stable(
            engine.program,
            engine.model,
            engine.scheduler,
            engine.adversary,
            initial_configuration,
            predicate,
            max_steps=max_steps,
            stability_window=stability_window,
            trace_policy=trace_policy,
            ring_size=ring_size,
            chunk_size=chunk_size,
            materialize_final=materialize_final,
        )
    else:
        result = run_until_stable_core(
            engine.program,
            engine.model,
            engine.scheduler,
            engine.adversary,
            initial_configuration,
            predicate,
            max_steps=max_steps,
            stability_window=stability_window,
            trace_policy=trace_policy,
            ring_size=ring_size,
            chunk_size=chunk_size,
        )
    if obs is not NULL_RECORDER:
        _record_run(obs, backend, result, time.perf_counter() - begin,
                    chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE)
    return result


def _record_run(obs: Recorder, backend: str, result: ConvergenceResult,
                seconds: float, chunk_size: int) -> None:
    """Record one engine run's counters and wall time (obs enabled only).

    ``engine.chunks`` is exact without touching the step loops: every
    outer chunk iteration except possibly the one a stop fires in is
    full, so the iteration count is ``ceil(steps_executed / chunk_size)``.
    """
    obs.counter("engine.runs")
    obs.counter("engine.steps", result.steps_executed)
    obs.counter("engine.chunks",
                -(-result.steps_executed // chunk_size) if chunk_size else 0)
    obs.counter("engine.omissions", result.omissions)
    obs.counter("engine.converged" if result.converged else "engine.diverged")
    obs.counter(f"engine.backend.{backend}")
    obs.observe("engine.run_seconds", seconds)


def run_until_stable_core(
    program: Any,
    model: Any,
    scheduler: Any,
    adversary: Optional[Any],
    initial_configuration: Configuration,
    predicate: Any,
    max_steps: int = 100_000,
    stability_window: int = 0,
    *,
    trace_policy: str = "full",
    ring_size: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> ConvergenceResult:
    """The python-backend convergence loop, over explicit run ingredients.

    :func:`run_until_stable` is the engine-facing wrapper; this function is
    the implementation the ``python`` backend object delegates to (backends
    receive ingredients, not engines, so they never import the engine
    layer).  Semantics are exactly those documented on
    :func:`run_until_stable`.
    """
    recorder = make_recorder(trace_policy, ring_size)
    buffer = MutableConfiguration(initial_configuration)
    incremental = as_incremental(predicate)

    consecutive = 1 if incremental.reset(buffer) else 0
    first_of_streak: Optional[int] = 0 if consecutive else None
    target = stability_window + 1

    if consecutive >= target:
        return ConvergenceResult(
            converged=True,
            steps_executed=0,
            steps_to_convergence=first_of_streak,
            trace=recorder.build_trace(initial_configuration, initial_configuration),
            final=initial_configuration,
            omissions=0,
            last_steps=recorder.last_steps(),
        )

    steps = 0
    wants_deltas = getattr(incremental, "consumes_deltas", True)
    update = incremental.update

    def on_step(interaction, starter_pre, starter_post, reactor_pre, reactor_post) -> bool:
        nonlocal steps, consecutive, first_of_streak
        steps += 1
        deltas = ()
        if wants_deltas:
            if starter_pre is not starter_post and starter_pre != starter_post:
                deltas = ((interaction.starter, starter_pre, starter_post),)
            if reactor_pre is not reactor_post and reactor_pre != reactor_post:
                deltas += ((interaction.reactor, reactor_pre, reactor_post),)
        if update(deltas):
            if consecutive == 0:
                first_of_streak = steps
            consecutive += 1
        else:
            consecutive = 0
            first_of_streak = None
        return consecutive >= target

    steps_done, _stopped = run_core(
        program,
        model,
        scheduler,
        adversary,
        buffer,
        recorder,
        max_steps,
        on_step=on_step,
        chunk_size=chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE,
    )

    final = buffer.freeze()
    converged = consecutive >= target
    return ConvergenceResult(
        converged=converged,
        steps_executed=steps_done,
        steps_to_convergence=first_of_streak if converged else None,
        trace=recorder.build_trace(initial_configuration, final),
        final=final,
        omissions=recorder.omissions,
        last_steps=recorder.last_steps(),
    )
