"""Equivalence tests for the campaign cell stream and the multi-campaign
queue.

The pin under test is **fold-equivalence**: ``report(records)`` is a pure
function of the record *set* — identical for every fan-out setting, any
interrupt point, both engine backends, and any order in which a store's
records were appended.  The runner persists records in plan order, but a
shared store written by several processes gets them in any order, so the
suite also appends a fixed set of records in deterministic permutations
— no wall-clock, no randomness — to prove order-independence is a
property of the folds.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.planner import plan_campaign
from repro.campaign.queue import CampaignQueue
from repro.campaign.report import render_report
from repro.campaign.runner import campaign_status, run_campaign
from repro.campaign.spec import campaign_from_dict, campaign_from_file
from repro.campaign.store import ResultStore, SharedResultStore
from repro.cli import main

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "figure4_omission_sweep.json")

#: The fan-out settings every equivalence test sweeps: cells one by one
#: in-process, and every cell's runs streamed through one process pool.
FANOUTS = {
    "sequential": dict(jobs=1),
    "process": dict(jobs=2, jobs_backend="process"),
}


def small_campaign(backend: str = "python", name: str = "small-grid") -> dict:
    """The fast four-cell campaign the determinism tests sweep."""
    return {
        "name": name,
        "base": {"protocol": "epidemic", "backend": backend},
        "axes": {
            "scheduler": ["random", "round-robin"],
            "population": [4, 6],
        },
        "runs": 2,
        "base_seed": 3,
        "max_steps": 20_000,
        "stability_window": 8,
    }


def fresh_store(tmp_path, plan, name="store.jsonl"):
    return ResultStore.create(str(tmp_path / name), plan.campaign.name,
                              plan.campaign_hash)


def canonical_records(store):
    return sorted(json.dumps(record, sort_keys=True)
                  for record in store.cell_records.values())


def store_bytes(store) -> bytes:
    with open(store.path, "rb") as handle:
        return handle.read()


def psm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {entry for entry in os.listdir("/dev/shm") if entry.startswith("psm_")}


def serial_store(tmp_path, plan, name="serial-reference.jsonl"):
    """The sequential run every other execution must fold-match."""
    store = fresh_store(tmp_path, plan, name=name)
    run_campaign(plan, store)
    return store


def serial_reference(tmp_path, plan):
    store = serial_store(tmp_path, plan)
    return canonical_records(store), render_report(plan, store.cell_records)


# ---------------------------------------------------------------------------
# every fan-out vs the sequential reference: full runs
# ---------------------------------------------------------------------------


class TestParallelEquivalence:
    @pytest.mark.parametrize("fanout", sorted(FANOUTS))
    @pytest.mark.parametrize("run_chunk", [1, 2])
    def test_fanout_run_folds_identically_to_serial(
            self, tmp_path, fanout, run_chunk):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        reference = serial_store(tmp_path, plan)

        store = fresh_store(tmp_path, plan)
        status = run_campaign(plan, store, run_chunk=run_chunk,
                              **FANOUTS[fanout])
        assert status.complete and status.executed_now == plan.total
        assert canonical_records(store) == canonical_records(reference)
        assert render_report(plan, store.cell_records) == render_report(
            plan, reference.cell_records)
        assert store_bytes(store) == store_bytes(reference)

    def test_zero_run_cells_persist_under_every_fanout(self, tmp_path):
        # The spec parser rejects ``runs: 0``; a spec built in code can
        # still carry it, and its cells have no batch to wait for.
        campaign = campaign_from_dict(small_campaign())
        campaign.runs = 0
        plan = plan_campaign(campaign)
        reference = serial_store(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        assert run_campaign(plan, store, **FANOUTS["process"]).complete
        assert store_bytes(store) == store_bytes(reference)

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    def test_array_backend_parallel_matches_serial(self, tmp_path,
                                                   interrupt_after):
        pytest.importorskip("numpy")
        plan = plan_campaign(campaign_from_dict(small_campaign(backend="array")))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, max_cells=interrupt_after,
                     **FANOUTS["process"])
        run_campaign(plan, store, **FANOUTS["process"])
        assert canonical_records(store) == expected_records
        assert render_report(plan, store.cell_records) == expected_report


# ---------------------------------------------------------------------------
# bad fan-out knobs are rejected before any store is touched
# ---------------------------------------------------------------------------


#: Fan-out settings that must raise, never become stored ``error`` cells.
BAD_FANOUTS = {
    "zero-jobs": dict(jobs=0),
    "zero-run-chunk": dict(run_chunk=0),
    "unknown-backend": dict(jobs_backend="fibre"),
    "shm-on-threads": dict(jobs_backend="thread", result_transport="shm"),
    "unknown-transport": dict(result_transport="carrier-pigeon"),
}


class TestFanoutChecks:
    @pytest.mark.parametrize("bad", sorted(BAD_FANOUTS))
    def test_run_campaign_rejects_bad_fanout(self, tmp_path, bad):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        with pytest.raises(ValueError):
            run_campaign(plan, store, **BAD_FANOUTS[bad])
        assert store.cell_records == {}

    @pytest.mark.parametrize("bad", sorted(BAD_FANOUTS))
    def test_drain_rejects_bad_fanout(self, tmp_path, bad):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = fresh_store(tmp_path, plan)
        queue = CampaignQueue()
        queue.submit(plan, store)
        with pytest.raises(ValueError):
            queue.drain(**BAD_FANOUTS[bad])
        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash, recover=False)
        assert reopened.cell_records == {}


# ---------------------------------------------------------------------------
# interrupt after any prefix, resume with any fan-out
# ---------------------------------------------------------------------------


class TestInterruptResumeEquivalence:
    @pytest.mark.parametrize("interrupt_after", [1, 2, 3])
    @pytest.mark.parametrize("fanout", sorted(FANOUTS))
    def test_interrupted_parallel_run_resumes_to_the_serial_fold(
            self, tmp_path, interrupt_after, fanout):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        store = fresh_store(tmp_path, plan)
        partial = run_campaign(plan, store, max_cells=interrupt_after,
                               **FANOUTS[fanout])
        assert partial.interrupted and not partial.keyboard_interrupt
        assert partial.executed_now == interrupt_after
        # The interrupt point is deterministic whatever the fan-out:
        # exactly the first `interrupt_after` cells in plan order ran.
        assert sorted(store.completed_ids()) == sorted(
            cell.cell_id for cell in plan.cells[:interrupt_after])

        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = run_campaign(plan, resumed, **FANOUTS[fanout])
        assert status.complete
        assert status.executed_now == plan.total - interrupt_after
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report

    @pytest.mark.parametrize("first, second", [
        ("sequential", "process"), ("process", "sequential")])
    def test_executors_can_resume_each_other(self, tmp_path, first, second):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        store = fresh_store(tmp_path, plan)
        run_campaign(plan, store, max_cells=2, **FANOUTS[first])
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = run_campaign(plan, resumed, **FANOUTS[second])
        assert status.complete
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report

    def test_keyboard_interrupt_mid_walk_leaves_a_resumable_store(
            self, tmp_path, monkeypatch):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)
        store = fresh_store(tmp_path, plan)

        import repro.campaign.runner as runner_module
        real = runner_module.build_cell_record
        calls = {"n": 0}

        def interrupting(cell, plan_, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return real(cell, plan_, **kwargs)

        monkeypatch.setattr(runner_module, "build_cell_record", interrupting)
        status = run_campaign(plan, store)
        assert status.interrupted and status.keyboard_interrupt
        assert 0 < status.done < plan.total

        monkeypatch.setattr(runner_module, "build_cell_record", real)
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        final = run_campaign(plan, resumed, **FANOUTS["process"])
        assert final.complete
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report


# ---------------------------------------------------------------------------
# records appended in injected permutations
# ---------------------------------------------------------------------------


#: Deterministic permutations of a four-element append sequence (no
#: randomness per RPL001, no wall-clock per RPL002): the identity, the full
#: reversal, and an interleave.
PERMUTATIONS = {
    "identity": [0, 1, 2, 3],
    "reversed": [3, 2, 1, 0],
    "interleaved": [2, 0, 3, 1],
}


def permuted_store(tmp_path, plan, order, cells=None):
    """A store holding the sequential run's records for the plan indices
    in ``cells`` (default: all), appended with ``append_cell`` in the
    order ``order`` visits them."""
    serial = serial_store(tmp_path, plan, name="permutation-source.jsonl")
    wanted = range(plan.total) if cells is None else cells
    store = fresh_store(tmp_path, plan, name="permuted.jsonl")
    for index in order:
        if index in wanted:
            store.append_cell(serial.record_for(plan.cells[index].cell_id))
    return store


class TestInjectedCompletionOrder:
    @pytest.mark.parametrize("permutation", sorted(PERMUTATIONS))
    def test_any_completion_order_folds_identically(self, tmp_path,
                                                    permutation):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        store = permuted_store(tmp_path, plan, PERMUTATIONS[permutation])
        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash, recover=False)
        assert campaign_status(plan, reopened).complete
        assert canonical_records(reopened) == expected_records
        assert render_report(plan, reopened.cell_records) == expected_report

    def test_the_injected_shuffle_really_permutes_the_file(self, tmp_path):
        """Guard against the permutation silently not applying: under the
        reversal the on-disk append order must differ from plan order
        while the folds (previous test) stay identical."""
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = permuted_store(tmp_path, plan, PERMUTATIONS["reversed"])
        with open(store.path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        on_disk = [record["cell_id"] for record in lines
                   if record.get("kind") == "cell"]
        assert on_disk == [cell.cell_id for cell in reversed(plan.cells)]

    @pytest.mark.parametrize("permutation", ["reversed", "interleaved"])
    def test_interrupt_under_a_shuffle_still_resumes_to_the_serial_fold(
            self, tmp_path, permutation):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        expected_records, expected_report = serial_reference(tmp_path, plan)

        # The first two cells of the permutation landed before the crash.
        order = PERMUTATIONS[permutation]
        store = permuted_store(tmp_path, plan, order, cells=order[:2])
        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        status = run_campaign(plan, resumed, **FANOUTS["process"])
        assert status.executed_now == plan.total - 2
        assert canonical_records(resumed) == expected_records
        assert render_report(plan, resumed.cell_records) == expected_report


# ---------------------------------------------------------------------------
# status folds the record set, not the append order
# ---------------------------------------------------------------------------


class TestStatusOrderIndependence:
    def test_status_counts_are_append_order_independent(self, tmp_path):
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = permuted_store(tmp_path, plan, PERMUTATIONS["reversed"],
                               cells=[0, 1, 2])

        reopened = ResultStore.open(store.path, plan.campaign.name,
                                    plan.campaign_hash, recover=False)
        status = campaign_status(plan, reopened)
        assert (status.done, status.pending) == (3, 1)
        # The pending cell is identified by id, not by position.
        assert [cell.cell_id for cell in status.pending_cells] == [
            plan.cells[3].cell_id]

    def test_cli_status_after_a_shuffled_parallel_run(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(small_campaign()), encoding="utf-8")
        plan = plan_campaign(campaign_from_dict(small_campaign()))
        store = permuted_store(tmp_path, plan, PERMUTATIONS["interleaved"])

        code = main(["campaign", "status", str(spec_path),
                     "--store", store.path])
        out = capsys.readouterr().out
        assert code == 0
        assert "| done      | 4" in out
        assert "| pending   | 0" in out


# ---------------------------------------------------------------------------
# the multi-campaign queue
# ---------------------------------------------------------------------------


def counting_build(monkeypatch):
    """Count (and order) the cells the sequential stream computes."""
    import repro.campaign.runner as runner_module
    real = runner_module.build_cell_record
    executed = []

    def counted(cell, plan, **kwargs):
        executed.append(cell.cell_id)
        return real(cell, plan, **kwargs)

    monkeypatch.setattr(runner_module, "build_cell_record", counted)
    return executed


class TestCampaignQueue:
    def overlapping_plans(self):
        first = small_campaign(name="first")
        second = small_campaign(name="second")
        second["axes"]["population"] = [4, 6, 8]  # superset: 2 extra cells
        return (plan_campaign(campaign_from_dict(first)),
                plan_campaign(campaign_from_dict(second)))

    def test_overlapping_campaigns_compute_each_cell_once(self, tmp_path,
                                                          monkeypatch):
        plan_a, plan_b = self.overlapping_plans()
        executed = counting_build(monkeypatch)

        queue = CampaignQueue()
        store_a = fresh_store(tmp_path, plan_a, name="a.jsonl")
        store_b = fresh_store(tmp_path, plan_b, name="b.jsonl")
        queue.submit(plan_a, store_a)
        queue.submit(plan_b, store_b)
        statuses = queue.drain()

        shared = set(plan_a.cell_ids()) & set(plan_b.cell_ids())
        assert len(shared) == 4
        assert sorted(executed) == sorted(set(plan_a.cell_ids())
                                          | set(plan_b.cell_ids()))
        assert all(status.complete for status in statuses)

        # Each store is record-identical to running its campaign alone.
        for plan, store in ((plan_a, store_a), (plan_b, store_b)):
            isolated = fresh_store(tmp_path, plan,
                                   name=f"isolated-{plan.campaign.name}.jsonl")
            run_campaign(plan, isolated)
            assert canonical_records(store) == canonical_records(isolated)
            assert render_report(plan, store.cell_records) == render_report(
                plan, isolated.cell_records)

    def test_prepopulated_store_satisfies_other_campaigns(self, tmp_path,
                                                          monkeypatch):
        plan_a, plan_b = self.overlapping_plans()
        store_a = fresh_store(tmp_path, plan_a, name="a.jsonl")
        run_campaign(plan_a, store_a)  # the pool the queue may reuse

        executed = counting_build(monkeypatch)
        queue = CampaignQueue()
        store_b = fresh_store(tmp_path, plan_b, name="b.jsonl")
        queue.submit(plan_a, store_a)
        queue.submit(plan_b, store_b)
        status_a, status_b = queue.drain()

        # Only the set-difference cells were computed; the overlap came
        # from the first campaign's finished store.
        assert sorted(executed) == sorted(
            set(plan_b.cell_ids()) - set(plan_a.cell_ids()))
        assert status_a.complete and status_a.executed_now == 0
        assert status_b.complete
        assert status_b.executed_now == len(executed)

        isolated = fresh_store(tmp_path, plan_b, name="isolated-b.jsonl")
        run_campaign(plan_b, isolated)
        assert canonical_records(store_b) == canonical_records(isolated)

    def test_priority_orders_the_schedule(self, tmp_path, monkeypatch):
        plan_a, plan_b = self.overlapping_plans()
        executed = counting_build(monkeypatch)

        queue = CampaignQueue()
        store_a = fresh_store(tmp_path, plan_a, name="a.jsonl")
        store_b = fresh_store(tmp_path, plan_b, name="b.jsonl")
        queue.submit(plan_a, store_a, priority=0)
        queue.submit(plan_b, store_b, priority=10)
        queue.drain()  # jobs == 1: execution order == schedule

        # Every cell of the high-priority campaign runs before any cell
        # exclusive to the low-priority one (here the overlap is owned by
        # the high-priority campaign, so its whole grid goes first).
        assert executed == [cell.cell_id for cell in plan_b.cells]

    def test_priority_defaults_to_the_spec_field(self, tmp_path):
        data = small_campaign()
        data["priority"] = 7
        plan = plan_campaign(campaign_from_dict(data))
        queue = CampaignQueue()
        entry = queue.submit(plan, fresh_store(tmp_path, plan))
        assert entry.priority == 7
        override = queue.submit(plan, fresh_store(tmp_path, plan,
                                                  name="other.jsonl"),
                                priority=-1)
        assert override.priority == -1

    def test_queue_into_one_shared_store_appends_each_cell_once(
            self, tmp_path):
        plan_a, plan_b = self.overlapping_plans()
        pool = SharedResultStore.create(str(tmp_path / "pool.jsonl"))
        queue = CampaignQueue()
        queue.submit(plan_a, pool)
        queue.submit(plan_b, pool)
        statuses = queue.drain(**FANOUTS["process"])
        assert all(status.complete for status in statuses)
        union = set(plan_a.cell_ids()) | set(plan_b.cell_ids())
        assert pool.completed_ids() == union
        with open(pool.path, "r", encoding="utf-8") as handle:
            cell_lines = [line for line in handle if '"kind": "cell"' in line]
        assert len(cell_lines) == len(union)

    def test_drain_is_idempotent(self, tmp_path, monkeypatch):
        plan_a, plan_b = self.overlapping_plans()
        queue = CampaignQueue()
        store_a = fresh_store(tmp_path, plan_a, name="a.jsonl")
        store_b = fresh_store(tmp_path, plan_b, name="b.jsonl")
        queue.submit(plan_a, store_a)
        queue.submit(plan_b, store_b)
        queue.drain(**FANOUTS["process"])
        before = (canonical_records(store_a), canonical_records(store_b))
        executed = counting_build(monkeypatch)
        statuses = queue.drain()
        assert executed == []
        assert all(status.complete and status.executed_now == 0
                   for status in statuses)
        assert (canonical_records(store_a),
                canonical_records(store_b)) == before


# ---------------------------------------------------------------------------
# a queue of one is run_campaign
# ---------------------------------------------------------------------------


def shipped_plan():
    """The shipped Figure-4 spec, planned as ``repro campaign run`` does."""
    campaign = campaign_from_file(EXAMPLE_SPEC)
    campaign.base.setdefault("backend", "auto")
    return plan_campaign(campaign)


@pytest.fixture(scope="module")
def shipped_reference(tmp_path_factory):
    """The shipped spec's store bytes from ``run_campaign(jobs=1)``."""
    plan = shipped_plan()
    store = fresh_store(tmp_path_factory.mktemp("shipped"), plan)
    assert run_campaign(plan, store, jobs=1).complete
    return store_bytes(store)


#: The shipped spec's fan-outs pinned against the sequential store.
SHIPPED_FANOUTS = {
    "sequential": dict(jobs=1),
    "process-auto": dict(jobs=2, jobs_backend="process",
                         result_transport="auto"),
}


class TestQueueOfOne:
    @pytest.mark.parametrize("fanout", sorted(SHIPPED_FANOUTS))
    def test_queue_of_one_writes_run_campaigns_store(
            self, tmp_path, shipped_reference, fanout):
        plan = shipped_plan()
        before = psm_segments()
        store = fresh_store(tmp_path, plan, "queued.jsonl")
        queue = CampaignQueue()
        queue.submit(plan, store)
        [status] = queue.drain(**SHIPPED_FANOUTS[fanout])
        assert status.complete and status.executed_now == plan.total
        assert store_bytes(store) == shipped_reference
        assert psm_segments() <= before

    def test_run_campaign_process_auto_matches_sequential(
            self, tmp_path, shipped_reference):
        plan = shipped_plan()
        before = psm_segments()
        store = fresh_store(tmp_path, plan)
        assert run_campaign(plan, store,
                            **SHIPPED_FANOUTS["process-auto"]).complete
        assert store_bytes(store) == shipped_reference
        assert psm_segments() <= before

    def test_interrupted_drain_resumes_under_run_campaign(
            self, tmp_path, shipped_reference):
        plan = shipped_plan()
        lines = []

        def progress(line):
            lines.append(line)
            if len(lines) == 4:  # the fourth cell's line: Ctrl-C mid-stream
                raise KeyboardInterrupt

        before = psm_segments()
        store = fresh_store(tmp_path, plan, "queued.jsonl")
        queue = CampaignQueue()
        queue.submit(plan, store)
        [status] = queue.drain(progress=progress,
                               **SHIPPED_FANOUTS["process-auto"])
        assert status.interrupted and status.keyboard_interrupt
        assert 0 < status.done < plan.total and "interrupted" in lines[-1]

        resumed = ResultStore.open(store.path, plan.campaign.name,
                                   plan.campaign_hash)
        assert run_campaign(plan, resumed).complete
        assert store_bytes(resumed) == shipped_reference
        assert psm_segments() <= before
