"""Campaign execution: dispatch planned cells and stream results to the store.

:func:`stream_cells` is the one place that executes cells.  It takes
``(cell, plan)`` pairs and runs them one by one through
:func:`~repro.engine.experiment.repeat_experiment` when ``jobs == 1``,
or pipelined through one worker pool whose batch window every cell
shares (:func:`~repro.engine.experiment.merge_batches`) when
``jobs > 1``.  Either way a campaign inherits the determinism guarantees
the fan-out backends pin: a cell's result is a pure function of its
resolved spec and seed block, and records reach the persist callback in
input order, whatever the fan-out.  :func:`run_campaign` feeds it one
campaign's pending cells in plan order;
:meth:`~repro.campaign.queue.CampaignQueue.drain` feeds it the
deduplicated cells of many campaigns in schedule order.

Interruption is a first-class outcome, not an error: cells are persisted
one by one with atomic appends, so killing the runner loses at most the
cells with batches in flight (at most ``2 x jobs`` batches).
``max_cells`` bounds how many *new* cells one invocation executes — the
CI smoke and the resume tests use it to interrupt campaigns at a
deterministic prefix — and a
``KeyboardInterrupt`` mid-campaign is caught, reported, and leaves the
store resumable.  ``repro campaign resume`` is the same walk again: done
cells are skipped by content-addressed id, pending ones run, and the
finished store folds to a report byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.store import CELL_KIND, ResultStore, _BaseStore
from repro.engine import experiment
from repro.engine.backends import BackendError
from repro.engine.experiment import ExperimentResult, repeat_experiment
from repro.engine.transport import resolve_transport
from repro.obs.recorder import NULL_RECORDER, Recorder, get_recorder
from repro.protocols.registry import resolved_spec


@dataclass
class CampaignRunStatus:
    """Where a campaign stands after a runner pass (or a status query)."""

    total: int
    done: int = 0
    na: int = 0
    errors: int = 0
    executed_now: int = 0
    interrupted: bool = False
    #: ``True`` only when a KeyboardInterrupt (not a ``max_cells`` cap)
    #: stopped the walk — the CLI maps it to the conventional exit code 130.
    keyboard_interrupt: bool = False
    pending_cells: List[PlannedCell] = field(default_factory=list)

    @property
    def pending(self) -> int:
        return len(self.pending_cells)

    @property
    def complete(self) -> bool:
        """Every cell is accounted for (result, ``n/a`` verdict, or error)."""
        return self.pending == 0

    def summary(self) -> str:
        parts = [f"{self.done}/{self.total} cells done"]
        if self.na:
            parts.append(f"{self.na} n/a")
        if self.errors:
            parts.append(f"{self.errors} failed")
        if self.pending:
            parts.append(f"{self.pending} pending")
        return ", ".join(parts)


def _tally(status: CampaignRunStatus, record: dict) -> None:
    cell_status = record.get("status")
    if cell_status == "na":
        status.na += 1
        status.done += 1
    elif cell_status == "error":
        status.errors += 1
        status.done += 1
    else:
        status.done += 1


def status_of_records(plan: CampaignPlan, records: dict) -> CampaignRunStatus:
    """Fold cell records (by cell id) against the plan — the one tally used
    by the runner, ``campaign status`` and the report header alike."""
    status = CampaignRunStatus(total=plan.total)
    for cell in plan.cells:
        record = records.get(cell.cell_id)
        if record is None:
            status.pending_cells.append(cell)
        else:
            _tally(status, record)
    return status


def campaign_status(plan: CampaignPlan, store: ResultStore) -> CampaignRunStatus:
    """Fold the store against the plan without executing anything."""
    return status_of_records(plan, store.cell_records)


#: Fallback reasons shown in full by :func:`backend_summary` before it
#: collapses the rest into a count (keeps the preamble bounded on big grids).
MAX_BACKEND_REASONS = 3


def _backend_resolution(plan: CampaignPlan) -> Tuple[dict, List[str]]:
    """Per-backend cell tally and distinct fallback reasons, in plan order."""
    counts: dict = {}
    reasons: List[str] = []
    seen_reasons: set = set()
    for cell in plan.cells:
        if cell.skip_reason is not None:
            continue
        backend = dict(cell.fields).get("backend", "python")
        counts[backend] = counts.get(backend, 0) + 1
        if cell.backend_reason and cell.backend_reason not in seen_reasons:
            seen_reasons.add(cell.backend_reason)
            reasons.append(cell.backend_reason)
    return counts, reasons


def backend_summary(plan: CampaignPlan) -> List[str]:
    """Human-readable lines describing the plan's backend resolution.

    One line tallying executable cells per concrete engine backend, then —
    when ``auto`` cells fell back to the python backend — the first few
    distinct reasons.  Empty when nothing resolved to the array backend and
    no fallback happened (an all-python campaign has no selection story to
    tell); the CLI prints these before running so slow-path cells are
    visible up front.
    """
    counts, reasons = _backend_resolution(plan)
    if not reasons and set(counts) <= {"python"}:
        return []
    tally = ", ".join(f"{count} on {backend}"
                      for backend, count in sorted(counts.items()))
    lines = [f"engine backends: {tally}"]
    for reason in reasons[:MAX_BACKEND_REASONS]:
        lines.append(f"  python fallback: {reason}")
    if len(reasons) > MAX_BACKEND_REASONS:
        lines.append(
            f"  ... and {len(reasons) - MAX_BACKEND_REASONS} more fallback reasons")
    return lines


def _cell_record_header(cell: PlannedCell) -> dict:
    """The fields every persisted cell record shares, whatever its status."""
    return {
        "kind": CELL_KIND,
        "cell_id": cell.cell_id,
        "index": cell.index,
        "coordinates": dict(cell.coordinates),
    }


#: Per-cell failures, recorded as the cell's ``error`` record rather than
#: aborting the campaign: backend compilation / availability failures, and
#: registry keys or parameters that only fail at build time (the planner
#: validates what it can up front, but e.g. kwargs contents and
#: worker-side registries are only checked by the factories themselves).
CELL_ERRORS = (BackendError, KeyError, TypeError, ValueError)


def _cell_record(cell: PlannedCell, status: str, **outcome: object) -> dict:
    return {**_cell_record_header(cell), "status": status, **outcome}


def _error_record(cell: PlannedCell, error: Exception) -> dict:
    # KeyError carries its message in args.
    message = error.args[0] if isinstance(error, KeyError) and error.args \
        else error
    return _cell_record(cell, "error", error=str(message))


def _execute_cell(cell: PlannedCell, plan: CampaignPlan, *, jobs: int,
                  jobs_backend: str, run_chunk: int,
                  result_transport: str) -> dict:
    """Run one cell (or mark it ``n/a``) and shape its persistent record."""
    if cell.skip_reason is not None:
        return _cell_record(cell, "na", reason=cell.skip_reason)
    campaign = plan.campaign
    try:
        spec = cell.build_spec()
        result = repeat_experiment(
            spec=spec,
            runs=campaign.runs,
            max_steps=campaign.max_steps,
            stability_window=campaign.stability_window,
            base_seed=campaign.base_seed,
            jobs=jobs,
            jobs_backend=jobs_backend,
            run_chunk=run_chunk,
            trace_policy="counts-only",
            result_transport=result_transport,
        )
    except CELL_ERRORS as error:
        return _error_record(cell, error)
    return _cell_record(cell, "ok", result=result.to_dict())


def build_cell_record(cell: PlannedCell, plan: CampaignPlan, *, jobs: int = 1,
                      jobs_backend: str = "thread", run_chunk: int = 1,
                      result_transport: str = "pickle") -> dict:
    """The persistent record for one planned cell: ``n/a`` or executed.

    A pure function of (cell, seed block, fan-out knobs) with no store
    access: the caller's persist callback is the store's only appender.
    ``result_transport`` rides along with the other fan-out knobs
    (mechanism only — records are byte-identical for every transport).

    :func:`stream_cells` calls it once per cell when ``jobs == 1``; it
    records the cell's wall time and verdict through :func:`_observe_cell`,
    which the pipelined ``jobs > 1`` stream calls for the records it
    builds batch by batch.  Telemetry is write-only: the returned record
    never carries it.
    """
    begin = time.perf_counter()
    record = _execute_cell(cell, plan, jobs=jobs, jobs_backend=jobs_backend,
                           run_chunk=run_chunk, result_transport=result_transport)
    obs = get_recorder()
    if obs is not NULL_RECORDER:
        _observe_cell(obs, cell, record, time.perf_counter() - begin)
    return record


def _observe_cell(obs: Recorder, cell: PlannedCell, record: dict,
                  seconds: float) -> None:
    """Record one computed cell's verdict and wall time (either stream)."""
    status = record["status"]
    obs.counter(f"campaign.cells.{status}")
    obs.observe("campaign.cell_seconds", seconds)
    obs.event("campaign.cell", cell_id=cell.cell_id, index=cell.index,
              status=status, seconds=round(seconds, 6),
              backend=dict(cell.fields).get("backend", "python"))


def progress_line(cell: PlannedCell, total: int, record: dict) -> str:
    """The one-line progress message for a finished cell."""
    labels = " ".join(f"{axis}={label}" for axis, label in cell.coordinates)
    prefix = f"cell {cell.index + 1}/{total} [{labels}]"
    if record["status"] == "na":
        return f"{prefix} n/a: {record['reason']}"
    if record["status"] == "error":
        return f"{prefix} ERROR: {record['error']}"
    result = record["result"]
    return f"{prefix} {result['successes']}/{result['runs']} runs converged"


INTERRUPT_MESSAGE = ("interrupted — every finished cell is persisted; "
                     "run `repro campaign resume` to continue")


def run_campaign(
    plan: CampaignPlan,
    store: ResultStore,
    *,
    jobs: int = 1,
    jobs_backend: str = "thread",
    run_chunk: int = 1,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    result_transport: str = "pickle",
) -> CampaignRunStatus:
    """Execute every pending cell of ``plan``, streaming records to ``store``.

    ``max_cells`` caps the number of cells *newly executed* by this call
    (``None`` = no cap); the return value reports ``interrupted=True`` when
    the cap stopped the walk early.  ``progress`` (e.g. ``print``) receives
    one line per cell.  Records persist in plan order, so the store is
    byte-identical for every fan-out setting.
    """
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    transport = check_fanout(jobs, jobs_backend, run_chunk, result_transport)
    obs = get_recorder()
    begin = 0.0 if obs is NULL_RECORDER else time.perf_counter()
    if obs is not NULL_RECORDER:
        record_campaign_planned(obs, plan)
    emit = progress if progress is not None else (lambda _message: None)
    status = CampaignRunStatus(total=plan.total)

    def persist(cell: PlannedCell, record: dict) -> None:
        emit(progress_line(cell, plan.total, record))
        store.append_cell(record)
        status.executed_now += 1
        _tally(status, record)

    cells = select_pending(plan, store, status, max_cells)
    if stream_cells([(cell, plan) for cell in cells], persist, jobs=jobs,
                    jobs_backend=jobs_backend, run_chunk=run_chunk,
                    result_transport=transport):
        status.interrupted = True
        status.keyboard_interrupt = True
        emit(INTERRUPT_MESSAGE)
    status.pending_cells = [
        cell for cell in plan.cells if store.record_for(cell.cell_id) is None]
    if obs is not NULL_RECORDER:
        _record_campaign_done(obs, plan, status,
                              time.perf_counter() - begin)
    return status


def record_campaign_planned(obs: Recorder, plan: CampaignPlan) -> None:
    """Emit the campaign-start event plus the plan's backend resolution.

    The fallback reasons :func:`backend_summary` prints once also land in
    the event sink here (one structured event per distinct reason), so
    "why did these cells run on python?" survives past the terminal.
    """
    obs.event("campaign.start", name=plan.campaign.name, total=plan.total)
    counts, reasons = _backend_resolution(plan)
    if counts:
        obs.event("campaign.backends",
                  **{backend: count for backend, count in sorted(counts.items())})
    for reason in reasons:
        obs.event("campaign.backend_fallback", backend="python", reason=reason)


def _record_campaign_done(obs: Recorder, plan: CampaignPlan,
                          status: CampaignRunStatus, seconds: float) -> None:
    """Fold one runner pass's outcome into metrics plus the end event."""
    store_hits = status.done - status.executed_now
    obs.counter("campaign.cells.skipped", store_hits)
    obs.observe("campaign.seconds", seconds)
    if seconds > 0:
        obs.gauge("campaign.cells_per_s", status.executed_now / seconds)
    obs.event("campaign.end", name=plan.campaign.name, total=plan.total,
              done=status.done, executed=status.executed_now,
              skipped=store_hits, errors=status.errors, na=status.na,
              interrupted=status.interrupted, seconds=round(seconds, 6))


def select_pending(plan: CampaignPlan, store: _BaseStore,
                   status: CampaignRunStatus,
                   max_cells: Optional[int]) -> List[PlannedCell]:
    """Tally the stored cells into ``status``; return the first
    ``max_cells`` pending ones, in plan order."""
    pending: List[PlannedCell] = []
    for cell in plan.cells:
        existing = store.record_for(cell.cell_id)
        if existing is not None:
            _tally(status, existing)
        else:
            pending.append(cell)
    selected = pending if max_cells is None else pending[:max_cells]
    if len(selected) < len(pending):
        status.interrupted = True
    return selected


def check_fanout(jobs: int, jobs_backend: str, run_chunk: int,
                 result_transport: str) -> str:
    """Validate the fan-out knobs before any store is touched.

    Bad knobs raise :class:`ValueError` (or the shm transport's
    :class:`~repro.engine.transport.TransportError`) instead of reaching a
    cell, where they would be stored as ``error`` verdicts that a resume
    then treats as done.  Returns the concrete result transport.
    """
    experiment.check_fanout(jobs, jobs_backend, run_chunk)
    return resolve_transport(
        result_transport, jobs_backend=jobs_backend, trace_policy="counts-only",
        process_fanout=jobs > 1 and jobs_backend == "process")


def stream_cells(pairs: List[Tuple[PlannedCell, CampaignPlan]],
                 persist: Callable[[PlannedCell, dict], None], *, jobs: int,
                 jobs_backend: str, run_chunk: int,
                 result_transport: str) -> bool:
    """Execute ``(cell, plan)`` pairs, handing each record to ``persist``
    in input order; ``True`` when a ``KeyboardInterrupt`` stopped it.

    Each cell runs under its own plan's seed block and step budget: one by
    one through :func:`build_cell_record` when ``jobs == 1``, pipelined
    through one worker pool (:func:`_run_pipelined`) when ``jobs > 1``.
    The knobs must have passed :func:`check_fanout`.
    """
    try:
        if jobs == 1:
            for cell, plan in pairs:
                persist(cell, build_cell_record(
                    cell, plan, jobs=jobs, jobs_backend=jobs_backend,
                    run_chunk=run_chunk, result_transport=result_transport))
        elif pairs:
            _run_pipelined(pairs, persist, jobs=jobs,
                           jobs_backend=jobs_backend, run_chunk=run_chunk,
                           result_transport=result_transport)
    except KeyboardInterrupt:
        return True
    return False


class _PipelinedCell:
    """One cell of the pipelined stream; ``record`` is set once it is done."""

    def __init__(self, cell: PlannedCell, batches: int, max_steps: int) -> None:
        self.cell, self.left, self.max_steps = cell, batches, max_steps
        self.begin = time.perf_counter()
        self.result = ExperimentResult(runs=0, successes=0)
        self.error: Optional[Exception] = None
        # A cell of zero runs has no batch to wait for.
        self.record: Optional[dict] = None if batches else \
            _cell_record(cell, "ok", result=self.result.to_dict())

    def merge(self, start: int, fetch: Callable[[], list]) -> None:
        """Fold in the batch of runs from ``start``; build the record after the last."""
        try:
            for offset, outcome in enumerate(fetch()):
                self.result.add_run(start + offset, outcome, self.max_steps)
        except CELL_ERRORS as error:
            self.error = self.error or error
        self.left -= 1
        if not self.left:
            self.record = _error_record(self.cell, self.error) if self.error \
                else _cell_record(self.cell, "ok", result=self.result.to_dict())


def _run_pipelined(pairs: List[Tuple[PlannedCell, CampaignPlan]],
                   persist: Callable[[PlannedCell, dict], None], *, jobs: int,
                   jobs_backend: str, run_chunk: int,
                   result_transport: str) -> None:
    """Stream every cell's ``run_chunk`` batches through one worker pool.

    All cells share one window of ``2 x jobs`` batches
    (:func:`~repro.engine.experiment.merge_batches`), so no worker idles
    at a cell boundary; finished records persist strictly in input order.
    """
    obs = get_recorder()
    outbox: deque = deque()  # every streamed cell not yet persisted, in order

    def flush() -> None:
        while outbox and outbox[0].record is not None:
            done = outbox.popleft()
            if obs is not NULL_RECORDER:
                _observe_cell(obs, done.cell, done.record,
                              time.perf_counter() - done.begin)
            persist(done.cell, done.record)

    def merge(run: _PipelinedCell, start: int, fetch: Callable) -> None:
        run.merge(start, fetch)
        flush()

    def batches(submit: Callable, worker: Callable) -> Iterator[tuple]:
        for cell, plan in pairs:
            campaign = plan.campaign
            run = _PipelinedCell(cell, len(range(0, campaign.runs, run_chunk)),
                                 campaign.max_steps)
            outbox.append(run)
            if cell.skip_reason is not None:
                run.record = _cell_record(cell, "na", reason=cell.skip_reason)
            else:
                try:
                    spec, _ = resolved_spec(cell.build_spec(), "counts-only")
                except CELL_ERRORS as error:
                    run.record = _error_record(cell, error)
                else:
                    yield from experiment.run_batches(
                        partial(submit, worker, spec,
                                base_seed=campaign.base_seed,
                                max_steps=campaign.max_steps,
                                stability_window=campaign.stability_window,
                                trace_policy="counts-only"),
                        campaign.runs, run_chunk, partial(merge, run))
            flush()

    with experiment.open_fanout(jobs_backend, jobs, result_transport) as (
            submit, worker, receive, dispose):
        experiment.merge_batches(batches(submit, worker), 2 * jobs,
                                 receive=receive, dispose=dispose)
