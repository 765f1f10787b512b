"""A prioritised in-process cell queue: many campaigns, one scheduler.

The campaign runner and parallel executor each drive *one* campaign.
This module is the multi-tenant layer above them: several pending
campaigns are submitted to one :class:`CampaignQueue`, their cells merge
into a single work list, and one ``drain`` call schedules everything
through one cell-level worker pool — higher-priority campaigns' cells
start first, ties broken by submission order then plan order, so the
schedule is deterministic even though completion order is not.

Content addressing makes the queue deduplicating for free:

* two submitted campaigns whose grids overlap share cell ids, so each
  distinct cell **executes once** — every subscriber campaign receives
  the result;
* a cell already persisted in *any* submitted campaign's store is never
  recomputed — the finished record is delivered to the other stores
  that want it (re-headed with each plan's own index/coordinates, so a
  store populated via the queue is record-identical to one populated by
  running its campaign in isolation).

Campaigns sharing one store must be submitted with the *same* store
object (the natural fit is a :class:`~repro.campaign.store.SharedResultStore`
pool); the queue then appends each shared cell exactly once.

Like the parallel executor, the queue keeps every store single-writer:
workers compute records, the draining thread appends them.  Statuses
mirror :class:`~repro.campaign.runner.CampaignRunStatus` semantics —
``executed_now`` counts cells this drain computed *fresh* for that
campaign; records satisfied from another campaign's cache are tallied
as done without counting as executed.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import (
    CampaignRunStatus,
    _cell_record_header,
    _tally,
    build_cell_record,
)
from repro.campaign.store import _BaseStore
from repro.obs.recorder import NULL_RECORDER, get_recorder


@dataclass
class QueuedCampaign:
    """One submitted campaign: its plan, store, priority and fan-out knobs."""

    plan: CampaignPlan
    store: _BaseStore
    priority: int
    order: int
    jobs: int
    jobs_backend: str
    run_chunk: int
    status: CampaignRunStatus
    result_transport: str = "pickle"

    @property
    def name(self) -> str:
        return self.plan.campaign.name


@dataclass
class _WorkItem:
    """One distinct cell to produce, with every campaign that wants it."""

    cell_id: str
    #: ``(-priority, submission order, plan index)`` of the best subscriber
    #: — the deterministic schedule key (smaller starts first).
    sort_key: Tuple[int, int, int]
    #: ``(campaign, its planned cell)`` pairs, in submission order.
    subscribers: List[Tuple[QueuedCampaign, PlannedCell]] = field(
        default_factory=list)

    @property
    def owner(self) -> Tuple[QueuedCampaign, PlannedCell]:
        """The subscriber whose priority scheduled this item (executes it)."""
        return min(self.subscribers,
                   key=lambda pair: (-pair[0].priority, pair[0].order,
                                     pair[1].index))


def _reheaded(record: dict, cell: PlannedCell) -> dict:
    """``record``'s outcome under ``cell``'s own header fields.

    Cell records carry the owning plan's ``index``/``coordinates``; the
    outcome fields (``status``/``result``/``reason``/``error``) are pure
    functions of the content-addressed cell, so re-heading a record for
    another plan's view of the same cell reproduces exactly what that
    plan would have computed itself.
    """
    fresh = _cell_record_header(cell)
    for key, value in record.items():
        if key not in fresh:
            fresh[key] = value
    return fresh


class CampaignQueue:
    """Accumulate pending campaigns; drain them through one scheduler."""

    def __init__(self) -> None:
        self._entries: List[QueuedCampaign] = []

    @property
    def campaigns(self) -> List[QueuedCampaign]:
        return list(self._entries)

    def submit(self, plan: CampaignPlan, store: _BaseStore, *,
               priority: Optional[int] = None, jobs: int = 1,
               jobs_backend: str = "thread", run_chunk: int = 1,
               result_transport: str = "pickle") -> QueuedCampaign:
        """Enqueue a campaign.  ``priority`` defaults to the spec's own
        ``priority`` field; larger values drain first."""
        entry = QueuedCampaign(
            plan=plan,
            store=store,
            priority=plan.campaign.priority if priority is None else priority,
            order=len(self._entries),
            jobs=jobs,
            jobs_backend=jobs_backend,
            run_chunk=run_chunk,
            status=CampaignRunStatus(total=plan.total),
            result_transport=result_transport,
        )
        self._entries.append(entry)
        return entry

    def drain(self, *, cell_jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[CampaignRunStatus]:
        """Run every pending cell of every submitted campaign.

        Returns the per-campaign statuses in submission order.  Interrupting
        the drain (Ctrl-C) cancels queued cells, lets in-flight ones finish
        and persist, and leaves every store resumable — exactly the
        parallel executor's contract, across campaigns.
        """
        if cell_jobs < 1:
            raise ValueError("cell_jobs must be at least 1")
        emit = progress if progress is not None else (lambda _message: None)
        for entry in self._entries:
            entry.status = CampaignRunStatus(total=entry.plan.total)

        items = self._collect_items()
        queue = sorted(items.values(), key=lambda item: item.sort_key)
        obs = get_recorder()
        if obs is not NULL_RECORDER:
            obs.gauge("queue.campaigns", len(self._entries))
            obs.gauge("queue.depth", len(queue))

        # Satisfy from any submitted store's cache before computing anything:
        # a record persisted by one campaign serves every other subscriber.
        to_run: List[_WorkItem] = []
        for item in queue:
            cached = self._cached_record(item)
            if cached is not None:
                self._deliver(item, cached, emit, executed=False)
            else:
                to_run.append(item)
        if obs is not NULL_RECORDER:
            obs.counter("queue.cache_hits", len(queue) - len(to_run))
            obs.counter("queue.executed", len(to_run))

        if to_run:
            self._execute(to_run, cell_jobs, emit)
        for entry in self._entries:
            entry.status.pending_cells = [
                cell for cell in entry.plan.cells
                if entry.store.record_for(cell.cell_id) is None]
        return [entry.status for entry in self._entries]

    # -- drain internals --------------------------------------------------------

    def _collect_items(self) -> Dict[str, _WorkItem]:
        """Pending cells of every campaign, merged by content address."""
        items: Dict[str, _WorkItem] = {}
        for entry in self._entries:
            for cell in entry.plan.cells:
                existing = entry.store.record_for(cell.cell_id)
                if existing is not None:
                    _tally(entry.status, existing)
                    continue
                key = (-entry.priority, entry.order, cell.index)
                item = items.get(cell.cell_id)
                if item is None:
                    item = _WorkItem(cell_id=cell.cell_id, sort_key=key)
                    items[cell.cell_id] = item
                else:
                    item.sort_key = min(item.sort_key, key)
                item.subscribers.append((entry, cell))
        return items

    def _cached_record(self, item: _WorkItem) -> Optional[dict]:
        """A finished record for this cell in any submitted store, if one
        exists (scanned in submission order, so the source is deterministic)."""
        for entry in self._entries:
            record = entry.store.record_for(item.cell_id)
            if record is not None:
                return record
        return None

    def _deliver(self, item: _WorkItem, record: dict,
                 emit: Callable[[str], None], *, executed: bool) -> None:
        """Hand one finished record to every subscriber lacking it."""
        owner_entry, _ = item.owner
        for entry, cell in item.subscribers:
            if entry.store.record_for(cell.cell_id) is None:
                entry.store.append_cell(_reheaded(record, cell))
                # Per delivered record, not per step: the NullRecorder call
                # is a single no-op method dispatch when telemetry is off.
                get_recorder().counter("queue.delivered")
                if executed and entry is owner_entry:
                    entry.status.executed_now += 1
            _tally(entry.status, entry.store.record_for(cell.cell_id))
            emit(f"[{entry.name}] cell {cell.index + 1}/{entry.plan.total} "
                 f"{record['status']}")

    def _execute(self, to_run: List[_WorkItem], cell_jobs: int,
                 emit: Callable[[str], None]) -> None:
        """Compute the remaining items over the shared worker pool."""
        from repro.campaign.executor import _completed_in_order

        futures: List[Future] = []
        item_of: Dict[Future, _WorkItem] = {}
        try:
            with ThreadPoolExecutor(
                    max_workers=min(cell_jobs, len(to_run))) as pool:
                for item in to_run:
                    entry, cell = item.owner
                    future = pool.submit(
                        build_cell_record, cell, entry.plan, jobs=entry.jobs,
                        jobs_backend=entry.jobs_backend,
                        run_chunk=entry.run_chunk,
                        result_transport=entry.result_transport)
                    futures.append(future)
                    item_of[future] = item
                try:
                    for future in _completed_in_order(futures):
                        self._deliver(item_of[future], future.result(), emit,
                                      executed=True)
                except KeyboardInterrupt:
                    for future in futures:
                        future.cancel()
                    raise
        except KeyboardInterrupt:
            for future in futures:
                item = item_of[future]
                owner_entry, owner_cell = item.owner
                if future.done() and not future.cancelled() \
                        and future.exception() is None \
                        and owner_entry.store.record_for(
                            owner_cell.cell_id) is None:
                    self._deliver(item, future.result(), emit, executed=True)
            for entry in self._entries:
                entry.status.interrupted = True
                entry.status.keyboard_interrupt = True
            emit("interrupted — every finished cell is persisted; "
                 "drain again to continue")
