"""A prioritised in-process cell queue: many campaigns, one scheduler.

The campaign runner drives *one* campaign.  This module is the
multi-tenant layer above it: several pending campaigns are submitted to
one :class:`CampaignQueue`, their cells merge into a single work list,
and one ``drain`` call feeds everything, in schedule order, to the
runner's one cell stream (:func:`~repro.campaign.runner.stream_cells`)
— higher-priority campaigns' cells first, ties broken by submission
order then plan order, so the schedule is deterministic.  A queue of one
campaign writes the same store bytes as
:func:`~repro.campaign.runner.run_campaign`.

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

The draining thread is every store's only appender.  Statuses mirror
:class:`~repro.campaign.runner.CampaignRunStatus` semantics —
``executed_now`` counts cells this drain computed *fresh* for that
campaign; records satisfied from another campaign's cache are tallied
as done without counting as executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import (
    CampaignRunStatus,
    _cell_record_header,
    _tally,
    check_fanout,
    stream_cells,
)
from repro.campaign.store import _BaseStore
from repro.obs.recorder import NULL_RECORDER, get_recorder


@dataclass
class QueuedCampaign:
    """One submitted campaign: its plan, store and priority."""

    plan: CampaignPlan
    store: _BaseStore
    priority: int
    order: int
    status: CampaignRunStatus

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
               priority: Optional[int] = None) -> QueuedCampaign:
        """Enqueue a campaign.  ``priority`` defaults to the spec's own
        ``priority`` field; larger values drain first."""
        entry = QueuedCampaign(
            plan=plan,
            store=store,
            priority=plan.campaign.priority if priority is None else priority,
            order=len(self._entries),
            status=CampaignRunStatus(total=plan.total),
        )
        self._entries.append(entry)
        return entry

    def drain(self, *, jobs: int = 1, jobs_backend: str = "thread",
              run_chunk: int = 1, result_transport: str = "pickle",
              progress: Optional[Callable[[str], None]] = None,
              ) -> List[CampaignRunStatus]:
        """Run every pending cell of every submitted campaign.

        The fan-out knobs mean what they mean for
        :func:`~repro.campaign.runner.run_campaign`, and are checked before
        any store is touched.  Returns the per-campaign statuses in
        submission order.  Interrupting the drain (Ctrl-C) keeps every
        finished cell persisted and leaves every store resumable.
        """
        transport = check_fanout(jobs, jobs_backend, run_chunk,
                                 result_transport)
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

        def persist(cell: PlannedCell, record: dict) -> None:
            self._deliver(items[cell.cell_id], record, emit, executed=True)

        owners = (item.owner for item in to_run)
        if stream_cells([(cell, entry.plan) for entry, cell in owners], persist,
                        jobs=jobs, jobs_backend=jobs_backend,
                        run_chunk=run_chunk, result_transport=transport):
            for entry in self._entries:
                entry.status.interrupted = True
                entry.status.keyboard_interrupt = True
            emit("interrupted — every finished cell is persisted; "
                 "drain again to continue")
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
