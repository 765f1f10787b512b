"""Cell-level parallel campaign execution.

One campaign's cells are embarrassingly parallel by construction:
content-addressed specs plus per-cell seed blocks make every cell a pure
function of its own inputs, independent of every other cell.  This
module overlaps pending cells across a thread pool — each worker runs
one cell through :func:`~repro.campaign.runner.build_cell_record`, whose
cell-internal fan-out (``jobs``/``jobs_backend``/``run_chunk``/
``result_transport``, the thread/process machinery of
:mod:`repro.engine.experiment`) composes underneath, so ``--cell-jobs 4
--jobs 2 --backend process`` keeps four cells in flight with two worker
processes each — under the shm transport each cell's worker thread
ingests its own arenas and still hands the main thread a plain record.

Determinism under concurrency
-----------------------------

The executor preserves the serial walk's semantics in *set* terms, which
is all the folds consume:

* **Which cells run** is deterministic: the first ``max_cells`` pending
  cells in plan order (exactly the serial prefix), whatever the pool
  width.  ``--max-cells`` therefore still interrupts campaigns at a
  reproducible point.
* **What each cell produces** is deterministic: workers never share
  state — ``build_cell_record`` touches neither the store nor the other
  cells.
* **Append order is not** deterministic: records persist in completion
  order.  The store and report layers fold the record *set* (sorted by
  cell id), so the rendered report is byte-identical to the serial
  run's for every ``cell_jobs`` — the fold-equivalence contract pinned
  by ``tests/test_campaign_executor.py``.

The store stays **single-writer**: workers return records to the main
thread, which is the only appender — in-process concurrency never
interleaves file writes (cross-process appenders are serialised by the
store's ``O_APPEND`` single-``write`` discipline instead).

On ``KeyboardInterrupt``, queued cells are cancelled, in-flight cells
run to completion (they cannot be safely stopped mid-run), and every
finished record is persisted before returning — the store is always
resumable.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from typing import Callable, Dict, Iterator, List, Optional

from repro.campaign.planner import CampaignPlan, PlannedCell
from repro.campaign.runner import (
    INTERRUPT_MESSAGE,
    CampaignRunStatus,
    _tally,
    build_cell_record,
    progress_line,
    select_pending,
)
from repro.campaign.store import _BaseStore
from repro.obs.recorder import NULL_RECORDER, get_recorder


def _completed_in_order(futures: List[Future]) -> Iterator[Future]:
    """Yield cell futures as they complete — the one nondeterministic seam.

    Module-level so the concurrency tests can monkeypatch it with a
    deterministic permutation (wait for everything, yield in a fixed
    shuffled order) and prove the fold's order-independence is a
    property, not an accident of thread timing.
    """
    return as_completed(futures)


def run_campaign_parallel(
    plan: CampaignPlan,
    store: _BaseStore,
    *,
    cell_jobs: int = 1,
    jobs: int = 1,
    jobs_backend: str = "thread",
    run_chunk: int = 1,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    result_transport: str = "pickle",
) -> CampaignRunStatus:
    """Execute pending cells of ``plan`` over a ``cell_jobs``-wide pool.

    Semantically the parallel twin of
    :func:`~repro.campaign.runner.run_campaign`: the same cell set runs
    (the first ``max_cells`` pending cells in plan order), every record
    is identical, and the resulting store folds to byte-identical
    reports — only wall-clock overlap and on-disk append order differ.
    """
    if cell_jobs < 1:
        raise ValueError("cell_jobs must be at least 1")
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    emit = progress if progress is not None else (lambda _message: None)
    status = CampaignRunStatus(total=plan.total)
    selected = select_pending(plan, store, status, max_cells)

    def persist(future: Future, cell: PlannedCell) -> None:
        record = future.result()
        emit(progress_line(cell, plan.total, record))
        store.append_cell(record)
        status.executed_now += 1
        _tally(status, record)

    if selected:
        obs = get_recorder()
        if obs is not NULL_RECORDER:
            obs.gauge("campaign.pool_width", min(cell_jobs, len(selected)))
            obs.counter("campaign.cells.submitted", len(selected))
        futures: List[Future] = []
        cell_of: Dict[Future, PlannedCell] = {}
        try:
            with ThreadPoolExecutor(
                    max_workers=min(cell_jobs, len(selected))) as pool:
                for cell in selected:
                    future = pool.submit(
                        build_cell_record, cell, plan, jobs=jobs,
                        jobs_backend=jobs_backend, run_chunk=run_chunk,
                        result_transport=result_transport)
                    futures.append(future)
                    cell_of[future] = cell
                try:
                    for future in _completed_in_order(futures):
                        persist(future, cell_of[future])
                except KeyboardInterrupt:
                    # Queued cells are cancelled; the pool's shutdown (the
                    # with-block exit) waits for in-flight ones to finish.
                    for future in futures:
                        future.cancel()
                    raise
        except KeyboardInterrupt:
            status.interrupted = True
            status.keyboard_interrupt = True
            for future in futures:
                if future.done() and not future.cancelled() \
                        and future.exception() is None \
                        and store.record_for(cell_of[future].cell_id) is None:
                    persist(future, cell_of[future])
            emit(INTERRUPT_MESSAGE)
    status.pending_cells = [
        cell for cell in plan.cells if store.record_for(cell.cell_id) is None]
    return status
