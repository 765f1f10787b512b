"""Batch experiment runner.

Most of the benchmark harness follows the same pattern: run the same system
(program, model, adversary) with many random-scheduler seeds, check a
per-run success criterion, and aggregate convergence statistics.  This
module factors that pattern out so benchmarks and integration tests stay
declarative.

Two fan-out backends are available for ``runs > 1``:

``thread`` (default)
    A :class:`~concurrent.futures.ThreadPoolExecutor` sharing the live
    ``program``/``model`` objects.  Cheap to start and sufficient whenever
    runs spend their time outside the GIL — but pure-Python protocols are
    CPU-bound, so threads serialize on the interpreter lock.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` fed **registry keys
    and seeds instead of closures**: the experiment must be described by a
    picklable :class:`~repro.protocols.registry.ExperimentSpec`, which each
    worker resolves against its own imported registries
    (:mod:`repro.protocols.registry`).  This sidesteps the GIL for
    CPU-heavy protocols at the cost of per-run result pickling.

For short runs that pickling dominates: ``run_chunk=K`` ships seeds in
batches of ``K`` consecutive run indices per executor task
(:func:`run_spec_batch`), amortizing task submission and result transfer
over the whole batch — one future, one pickled list, instead of ``K`` of
each.  Batches are merged per-batch in submission order, so the aggregate
stays deterministic.

On top of chunking, ``result_transport`` selects *how* a batch's results
cross the process boundary: ``pickle`` (the seed path — one pickled
result list per batch) or ``shm`` (:mod:`repro.engine.transport` — the
batch's counts-only results come back as fixed-width int64 rows in a
shared-memory arena, with a pickle overflow lane for traces and ring
dumps), with ``auto`` picking shm exactly when the fan-out crosses
processes, the trace policy is counts-only and shared memory is usable.
Purely a mechanism knob: the merged aggregate is identical for every
transport.

Whatever the backend and chunking, results merge in run-index order, so
for a given spec and seed the aggregate :class:`ExperimentResult` is
identical across sequential, thread and process execution and across
every ``run_chunk``.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.engine.convergence import ConvergenceResult, run_until_stable
from repro.engine.engine import SimulationEngine
from repro.engine.fastpath import IncrementalPredicate
from repro.engine.transport import (
    ShmBatch,
    decode_batch,
    dispose_batch,
    encode_batch,
    resolve_transport,
)
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder
from repro.interaction.models import InteractionModel
from repro.protocols.registry import ExperimentSpec, build_cached, resolved_spec
from repro.protocols.state import Configuration
from repro.scheduling.scheduler import RandomScheduler

#: The selectable fan-out backends for ``repeat_experiment(jobs > 1)``.
JOBS_BACKENDS = ("thread", "process")


#: Trailing windows kept per aggregate result under the ``ring`` policy
#: (memory bound: windows are ring-size-bounded, but runs are not).
MAX_FAILURE_DUMPS = 3


@dataclass
class ExperimentResult:
    """Aggregate outcome of repeated runs of the same system."""

    runs: int
    successes: int
    convergence_steps: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Under the ``ring`` trace policy: ``(run_index, last_steps)`` for the
    #: first :data:`MAX_FAILURE_DUMPS` failed runs, so callers (the CLI crash
    #: dump) can show what the run was doing when it failed to converge.
    failure_dumps: List[tuple] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        """Fraction of runs that satisfied the success criterion."""
        if self.runs == 0:
            return 0.0
        return self.successes / self.runs

    @property
    def all_succeeded(self) -> bool:
        return self.runs > 0 and self.successes == self.runs

    @property
    def mean_convergence_steps(self) -> Optional[float]:
        """Mean number of interactions to convergence over successful runs."""
        if not self.convergence_steps:
            return None
        return statistics.fmean(self.convergence_steps)

    @property
    def median_convergence_steps(self) -> Optional[float]:
        if not self.convergence_steps:
            return None
        return statistics.median(self.convergence_steps)

    @property
    def max_convergence_steps(self) -> Optional[int]:
        if not self.convergence_steps:
            return None
        return max(self.convergence_steps)

    def add_run(self, run_index: int, outcome: ConvergenceResult, max_steps: int,
                validate: Optional[Callable] = None) -> None:
        """Fold one run's outcome in; runs must arrive in run-index order."""
        self.runs += 1
        failure: Optional[str] = None
        if not outcome.converged:
            failure = f"run {run_index}: did not converge within {max_steps} steps"
        elif validate is not None:
            error = validate(outcome)
            if error is not None:
                failure = f"run {run_index}: {error}"
        if failure is None:
            self.successes += 1
            if outcome.steps_to_convergence is not None:
                self.convergence_steps.append(outcome.steps_to_convergence)
        else:
            self.failures.append(failure)
            if outcome.last_steps and len(self.failure_dumps) < MAX_FAILURE_DUMPS:
                self.failure_dumps.append((run_index, outcome.last_steps))

    def summary(self) -> str:
        """One-line human-readable summary."""
        mean = self.mean_convergence_steps
        mean_text = f"{mean:.0f}" if mean is not None else "-"
        return (
            f"runs={self.runs} success={self.successes}/{self.runs} "
            f"mean-steps={mean_text}"
        )

    def to_dict(self) -> dict:
        """Plain-data form for persistence (the campaign result store).

        ``failure_dumps`` is deliberately dropped: trailing
        :class:`~repro.engine.trace.TraceStep` windows are live objects, and
        stores hold only JSON-serialisable data.
        """
        return {
            "runs": self.runs,
            "successes": self.successes,
            "convergence_steps": list(self.convergence_steps),
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result persisted by :meth:`to_dict`."""
        return cls(
            runs=data["runs"],
            successes=data["successes"],
            convergence_steps=list(data.get("convergence_steps", ())),
            failures=list(data.get("failures", ())),
        )


def run_spec(
    spec: ExperimentSpec,
    run_index: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
    materialize_final: bool = True,
) -> ConvergenceResult:
    """Execute one seeded run of ``spec`` (the process-pool worker function).

    Top-level by design: process backends ship this function by qualified
    name plus its picklable arguments.  The spec build (protocol, simulator,
    initial configuration) is memoised per process, so a worker executing
    many runs of the same spec pays for it once.

    The scheduler, adversary and predicate, by contrast, are built fresh
    here for *every* run.  For the adversary this is load-bearing, not just
    hygiene: a stop condition ending a run mid-chunk leaves the adversary's
    internal state (RNG position, omission-budget counters) planned up to
    one chunk ahead of the last executed interaction (see
    :mod:`repro.engine.fastpath`), so an instance carried over from such a
    run would start the next run from a drifted position.  Pinned by
    ``tests/test_experiment_fresh_state.py``.

    A spec still carrying ``backend="auto"`` is resolved here as a last
    line of defence (the CLI and campaign planner resolve earlier, before
    any hashing); resolution is deterministic in the spec and trace policy,
    so every worker pins the same concrete backend.
    """
    spec, _ = resolved_spec(spec, trace_policy)
    built = build_cached(spec)
    seed = base_seed + run_index
    engine = SimulationEngine(
        built.program,
        built.model,
        built.make_scheduler(seed),
        adversary=built.make_adversary(seed),
        backend=spec.backend,
    )
    return run_until_stable(
        engine,
        built.initial_configuration,
        built.make_predicate(),
        max_steps=max_steps,
        stability_window=stability_window,
        trace_policy=trace_policy,
        ring_size=ring_size,
        chunk_size=spec.chunk_size,
        materialize_final=materialize_final,
    )


def run_spec_batch(
    spec: ExperimentSpec,
    start_index: int,
    count: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
    materialize_final: bool = True,
) -> List[ConvergenceResult]:
    """Execute ``count`` consecutive seeded runs of ``spec`` in one worker task.

    The chunked-fan-out worker (``run_chunk > 1``): one submitted task —
    and, on the process backend, one pickled argument tuple and one
    pickled result list — covers run indices ``start_index ..
    start_index + count - 1``, amortizing the per-run dispatch overhead
    that dominates short runs.  Results come back in run-index order.
    """
    return [
        run_spec(
            spec, start_index + offset, base_seed, max_steps, stability_window,
            trace_policy, ring_size, materialize_final)
        for offset in range(count)
    ]


def run_spec_batch_shm(
    spec: ExperimentSpec,
    start_index: int,
    count: int,
    base_seed: int,
    max_steps: int,
    stability_window: int,
    trace_policy: str,
    ring_size: Optional[int] = None,
) -> ShmBatch:
    """:func:`run_spec_batch` through the shared-memory encoder.

    The shm-transport worker function: the batch's columnar-eligible
    results come back as one shared-memory arena named by the returned
    descriptor, everything else on the descriptor's pickle overflow lane.
    The arena's ownership passes to the parent with the descriptor
    (:func:`~repro.engine.transport.decode_batch` unlinks it); a worker
    failing mid-encode unlinks before propagating, so crashes leak
    nothing.

    When the run configuration guarantees every result is columnar-eligible
    (``counts-only`` policy, no ring buffer — so no traces, no failure
    dumps), the runs skip materialising ``result.final`` entirely
    (``materialize_final=False``): backends with a counts export then never
    decode the final configuration into python objects, which is the
    "columnar export without the python-object detour" half of the
    transport's win.
    """
    materialize_final = not (trace_policy == "counts-only" and ring_size is None)
    return encode_batch(run_spec_batch(
        spec, start_index, count, base_seed, max_steps, stability_window,
        trace_policy, ring_size, materialize_final))


def repeat_experiment(
    program: Any = None,
    model: Optional[InteractionModel] = None,
    initial_configuration: Optional[Configuration] = None,
    predicate: Any = None,
    runs: int = 10,
    max_steps: int = 100_000,
    stability_window: int = 0,
    base_seed: int = 0,
    adversary_factory: Optional[Callable[[int], Any]] = None,
    validate: Optional[Callable[[ConvergenceResult], Optional[str]]] = None,
    jobs: int = 1,
    trace_policy: Optional[str] = None,
    predicate_factory: Optional[Callable[[int], Any]] = None,
    jobs_backend: str = "thread",
    spec: Optional[ExperimentSpec] = None,
    ring_size: Optional[int] = None,
    run_chunk: int = 1,
    result_transport: str = "pickle",
) -> ExperimentResult:
    """Run the same system ``runs`` times with different scheduler seeds.

    The system is described either by live objects (``program``, ``model``,
    ``initial_configuration``, ``predicate``/``predicate_factory``,
    ``adversary_factory`` — the original API, thread/sequential backends
    only) or by a picklable ``spec`` (required for the process backend,
    accepted by every backend; the live-object parameters must then be
    omitted).

    Parameters
    ----------
    predicate:
        Convergence predicate on configurations (plain callable or
        :class:`~repro.engine.fastpath.IncrementalPredicate`); a run
        "succeeds" when the predicate stabilises within ``max_steps``
        interactions.
    adversary_factory:
        Optional callable mapping the run index to a fresh adversary
        instance (adversaries are stateful, so each run needs its own).
    validate:
        Optional extra per-run validation executed on the
        :class:`ConvergenceResult`; it returns ``None`` when the run is
        acceptable, or an error string which marks the run as failed (used
        e.g. to verify the simulation matching on top of convergence).
        Always runs in the parent process, whatever the backend.
    jobs:
        Number of workers for the per-seed fan-out.  Runs are dispatched to
        the selected backend and merged back in run-index order, so the
        aggregate result is deterministic and identical to the sequential
        one.  On the thread backend, ``program`` and ``model`` are shared
        across workers and must be stateless (all catalog protocols and
        simulators are); schedulers and adversaries are per-run.
    jobs_backend:
        ``"thread"`` (default) or ``"process"``.  The process backend
        requires ``spec``: workers receive only the spec and seeds —
        registry keys instead of closures — and return picklable
        :class:`ConvergenceResult` values.
    trace_policy:
        Trace policy forwarded to :func:`run_until_stable`.  Defaults to
        ``"counts-only"`` (the fast path — the aggregate only needs counts)
        unless ``validate`` is given, in which case the full trace is
        recorded so validators can inspect it.
    predicate_factory:
        Optional callable mapping the run index to a fresh predicate;
        required instead of ``predicate`` when using a *stateful*
        incremental predicate with ``jobs > 1``.
    spec:
        Picklable :class:`~repro.protocols.registry.ExperimentSpec`
        describing the whole system; mutually exclusive with the
        live-object parameters.  Every run builds fresh predicates and
        adversaries from the spec's registry keys, so stateful incremental
        predicates need no ``predicate_factory`` here.
    ring_size:
        Window size forwarded to :func:`run_until_stable` under the
        ``ring`` trace policy; the trailing windows of the first few
        failed runs surface on ``ExperimentResult.failure_dumps``.
    run_chunk:
        Consecutive run indices shipped per executor task (default 1).
        Larger chunks amortize per-run task submission — and, on the
        process backend, per-run argument/result pickling, which
        dominates short runs — at the cost of coarser load balancing.
        Purely a throughput knob: results are identical for every value.
    result_transport:
        How process-backend batches ship results back: ``"pickle"``
        (default — one pickled result list per batch), ``"shm"`` (the
        zero-copy shared-memory transport of
        :mod:`repro.engine.transport`; requires
        ``jobs_backend="process"`` and raises
        :class:`~repro.engine.transport.TransportError` when shared
        memory is unusable), or ``"auto"`` (shm exactly when the process
        fan-out runs under a counts-only policy and shared memory works,
        warning and falling back to pickle otherwise).  Like
        ``run_chunk``, purely a mechanism knob: the merged aggregate is
        identical for every transport.
    """
    check_fanout(jobs, jobs_backend, run_chunk)
    if spec is not None:
        conflicting = [
            name for name, value in (
                ("program", program),
                ("model", model),
                ("initial_configuration", initial_configuration),
                ("predicate", predicate),
                ("predicate_factory", predicate_factory),
                ("adversary_factory", adversary_factory),
            ) if value is not None
        ]
        if conflicting:
            raise ValueError(
                "spec fully describes the system; do not also pass "
                + ", ".join(conflicting))
    elif jobs_backend == "process":
        raise ValueError(
            "the process backend ships registry keys, not closures; "
            "describe the experiment with an ExperimentSpec (spec=...)")
    if jobs > 1 and predicate_factory is None and isinstance(predicate, IncrementalPredicate):
        raise ValueError(
            "incremental predicates are stateful; pass predicate_factory "
            "instead of a shared predicate when jobs > 1"
        )
    if validate is not None and trace_policy not in (None, "full"):
        raise ValueError(
            "validate inspects the full trace; it cannot be combined with "
            f"trace_policy={trace_policy!r}"
        )
    policy = trace_policy if trace_policy is not None else (
        "full" if validate is not None else "counts-only"
    )
    transport = resolve_transport(
        result_transport, jobs_backend=jobs_backend, trace_policy=policy,
        process_fanout=(jobs > 1 and runs > 1 and jobs_backend == "process"))

    if spec is not None and spec.backend == "auto":
        # Resolve once up front (against the run's actual trace policy) so
        # every fan-out mode — sequential, thread, process, any run_chunk —
        # executes the same concrete backend.
        spec, _ = resolved_spec(spec, policy)

    if spec is not None:
        def execute_run(run_index: int) -> ConvergenceResult:
            return run_spec(
                spec, run_index, base_seed, max_steps, stability_window, policy,
                ring_size)
    else:
        n = len(initial_configuration)

        def execute_run(run_index: int) -> ConvergenceResult:
            scheduler = RandomScheduler(n, seed=base_seed + run_index)
            adversary = adversary_factory(run_index) if adversary_factory else None
            engine = SimulationEngine(program, model, scheduler, adversary=adversary)
            run_predicate = (
                predicate_factory(run_index) if predicate_factory is not None else predicate
            )
            return run_until_stable(
                engine,
                initial_configuration,
                run_predicate,
                max_steps=max_steps,
                stability_window=stability_window,
                trace_policy=policy,
                ring_size=ring_size,
            )

    result = ExperimentResult(runs=0, successes=0)
    merge = partial(result.add_run, max_steps=max_steps, validate=validate)

    if jobs > 1 and runs > 1:
        workers = min(jobs, runs)
        with open_fanout(jobs_backend, workers, transport) as (
                submit, worker, receive, dispose):
            if spec is not None:
                batch = partial(
                    submit, worker, spec, base_seed=base_seed,
                    max_steps=max_steps, stability_window=stability_window,
                    trace_policy=policy, ring_size=ring_size)
            else:
                def execute_batch(start: int, count: int) -> List[ConvergenceResult]:
                    return [execute_run(start + offset) for offset in range(count)]

                batch = partial(submit, execute_batch)
            _merge_windowed(batch, runs, run_chunk, workers, merge,
                            receive=receive, dispose=dispose)
    else:
        obs = get_recorder()
        if obs is not NULL_RECORDER:
            obs.counter("fanout.backend.sequential")
        for run_index in range(runs):
            merge(run_index, execute_run(run_index))
    return result


def check_fanout(jobs: int, jobs_backend: str, run_chunk: int) -> None:
    """Validate the fan-out knobs every batch stream shares."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if run_chunk < 1:
        raise ValueError("run_chunk must be at least 1")
    if jobs_backend not in JOBS_BACKENDS:
        raise ValueError(
            f"unknown jobs_backend {jobs_backend!r}; expected one of {JOBS_BACKENDS}")


@contextmanager
def open_fanout(jobs_backend: str, workers: int, transport: str) -> Iterator[tuple]:
    """Open one worker pool for every batch the caller streams through it.

    Yields ``(submit, worker, receive, dispose)``: the pool's ``submit``,
    the lane's spec-batch function, and the transport hooks of
    :func:`merge_batches`.  The pool class and the worker functions are
    looked up at call time, so a stand-in patched onto this module (a
    counting or tracing pool) is the one used.
    """
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        obs.counter(f"fanout.backend.{jobs_backend}")
        obs.counter(f"fanout.transport.{transport}")
        obs.gauge("fanout.workers", workers)
    worker: Callable[..., Any] = run_spec_batch
    receive: Optional[Callable] = None
    dispose: Optional[Callable] = None
    if jobs_backend == "process":
        pool: Any = ProcessPoolExecutor(max_workers=workers)
        if transport == "shm":
            worker, receive, dispose = run_spec_batch_shm, decode_batch, dispose_batch
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
    with pool as executor:
        submit = executor.submit
        if obs is not NULL_RECORDER:
            submit = _timed_submit(obs, submit)
            if jobs_backend == "process":
                # Worker processes start with the NullRecorder, so engine
                # counters stay parent-side; what the parent can see — batch
                # latency and the transport lane each batch actually rode —
                # is recorded here.
                receive = _counted_receive(obs, receive)
        yield submit, worker, receive, dispose


def _timed_submit(obs: Recorder, submit: Callable) -> Callable:
    """Wrap a batch ``submit`` to observe submit-to-completion latency.

    The sample covers queue wait plus worker execution (what a batch
    actually costs the fan-out); the done-callback runs on executor
    threads, which the metric recorders are safe against.
    """
    def timed(*args: Any, **kwargs: Any) -> Any:
        begin = time.perf_counter()
        future = submit(*args, **kwargs)
        future.add_done_callback(
            lambda _future: obs.observe(
                "fanout.batch_seconds", time.perf_counter() - begin))
        return future
    return timed


def _counted_receive(obs: Recorder, receive: Optional[Callable]) -> Callable:
    """Wrap the fan-out ``receive`` hook to count transport lane usage.

    Shm batches record their columnar row count, arena bytes and pickle
    overflow; plain pickled batches record batch/result counts — so a
    sink shows exactly how results crossed the process boundary.
    """
    def counted(payload: Any) -> List[ConvergenceResult]:
        results = receive(payload) if receive is not None else payload
        if isinstance(payload, ShmBatch):
            columnar = payload.count - len(payload.overflow)
            obs.counter("transport.shm.batches")
            obs.counter("transport.shm.rows", columnar)
            obs.counter("transport.shm.overflow_results", len(payload.overflow))
            obs.counter("transport.shm.bytes",
                        columnar * (4 + len(payload.states)) * 8)
        else:
            obs.counter("transport.pickle.batches")
            obs.counter("transport.pickle.results", len(results))
        return results
    return counted


def merge_batches(batches: Iterable[tuple], window: int,
                  receive: Optional[Callable] = None,
                  dispose: Optional[Callable] = None) -> None:
    """Submit a stream of batches, merging in submission order as they stream in.

    The one windowed merge, for the batches of one experiment
    (:func:`_merge_windowed`) or of many (a campaign's cells through one
    pool).  ``batches`` yields ``(submit, merge)`` pairs, pulled one per
    submission: ``submit()`` returns the batch's future, and
    ``merge(fetch)`` calls ``fetch()`` once, which returns the batch's
    :class:`ConvergenceResult` list through ``receive`` (the shm decode-
    and-unlink hook; identity when ``None``) or raises what the worker
    raised.  At most ``window`` batches are outstanding, so completed
    results cannot pile up behind a slow early batch; merging strictly in
    submission order makes the fan-out deterministic.

    If a worker, a merge or the stream raises, the queued batches are
    cancelled, the ones in flight are waited out, and ``dispose`` releases
    each delivered payload, so no shared-memory arena outlives the
    fan-out.  Futures are only touched through ``result``, ``cancel``,
    ``cancelled`` and ``exception``.
    """
    pending: deque = deque()

    def drain_one() -> None:
        future, merge = pending.popleft()
        merge(future.result if receive is None
              else lambda: receive(future.result()))

    completed = False
    try:
        for submit, merge in batches:
            pending.append((submit(), merge))
            if len(pending) >= window:
                drain_one()
        while pending:
            drain_one()
        completed = True
    finally:
        if not completed:
            for future, _ in pending:
                future.cancel()
            for future, _ in pending:
                # exception() waits for in-flight batches (they cannot be
                # stopped mid-run) and returns rather than raises, so one
                # crashed worker cannot mask the disposal of the others.
                if dispose is not None and not future.cancelled() \
                        and future.exception() is None:
                    dispose(future.result())


def _merge_windowed(submit: Callable, runs: int, run_chunk: int, workers: int,
                    merge: Callable[[int, ConvergenceResult], None],
                    receive: Optional[Callable] = None,
                    dispose: Optional[Callable] = None) -> None:
    """One experiment through :func:`merge_batches`: ``merge(run_index,
    outcome)`` sees every run in run-index order, ``2 * workers`` batches
    outstanding at most."""
    merge_batches(run_batches(submit, runs, run_chunk, partial(_merge_runs, merge)),
                  2 * workers, receive=receive, dispose=dispose)


def run_batches(submit: Callable, runs: int, run_chunk: int,
                merge: Callable) -> Iterator[tuple]:
    """One experiment's runs as :func:`merge_batches` items.

    Runs are carved into batches of ``run_chunk`` consecutive indices:
    ``submit(start, count)`` returns the future of runs ``start .. start +
    count - 1``, and ``merge(start, fetch)`` consumes it.
    """
    for start in range(0, runs, run_chunk):
        yield (partial(submit, start, min(run_chunk, runs - start)),
               partial(merge, start))


def _merge_runs(merge: Callable[[int, ConvergenceResult], None], start: int,
                fetch: Callable[[], List[ConvergenceResult]]) -> None:
    for offset, outcome in enumerate(fetch()):
        merge(start + offset, outcome)
