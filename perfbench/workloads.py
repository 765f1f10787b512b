"""The benchmark's four workloads: inputs made from the seed, one timed
pass, and the checks that the program's outputs are correct.

``fig4-slice`` and ``fig4-slice-proc2`` run the shipped Figure-4 campaign
(``examples/figure4_omission_sweep.json``) the way ``repro campaign run``
does -- backend ``auto``, ``plan_campaign``, ``run_campaign`` into a fresh
``ResultStore``, ``render_report`` -- sequentially and with a two-worker
process pool over the shared-memory transport.  ``uo-epidemic-python`` and
``uo-epidemic-array`` run the one-way epidemic on I3 under the flooding
``UOAdversary`` through ``SimulationEngine`` + ``run_until_stable``,
because the registry cannot express a one-way protocol on an omissive
model.

``BENCHMARK.json`` lists three of them; ``uo-epidemic-python`` is kept for
runs by hand and the self-tests (see ``README.md``).

No ``repro`` module is imported at module level: :meth:`setup` does the
imports, so a fresh process timing :meth:`setup` measures import cost too.
Calls that the tracer wraps go through module attributes at call time, so
the wrappers installed after set-up are the ones called.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "examples", "figure4_omission_sweep.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The seed whose outputs are pinned in ``reference.json``; for the
#: ``fig4-*`` workloads it is the shipped spec's own ``base_seed``.
DEFAULT_SEED = 1

#: ``(population, backend, runs per pass, step cap)`` of the ``uo-*``
#: workloads.  The caps are about 20x the measured convergence time; a run
#: that hits one fails its check.
UO_WORKLOADS = {
    "uo-epidemic-python": (10_000, "python", 6, 5_000_000),
    "uo-epidemic-array": (100_000, "array", 4, 60_000_000),
}
#: The adversary instance the repository's epidemic benchmarks use.
UO_RATE = 0.25
UO_MAX_PER_GAP = 3

#: Campaigns per ``fig4-*`` pass, each at its own base seed.
CAMPAIGN_SEEDS = 9

#: The cells the shipped spec describes as n/a: the ring knowledge-of-n
#: cells and the omissive knowledge-of-n cells.  Every other cell is YES:
#: Theorem 4.1 (SKnO) and Theorem 4.6 (Nn, complete graph, no omissions).
EXPECTED_NA = {f"knowledge-of-n/{topology}/{omissions}"
               for topology in ("complete", "ring") for omissions in "012"} \
    - {"knowledge-of-n/complete/0"}
EXPECTED_CELLS = 12

CAMPAIGN_FANOUT = {
    "fig4-slice": {"jobs": 1},
    "fig4-slice-proc2": {"jobs": 2, "jobs_backend": "process",
                         "result_transport": "auto"},
}

WORKLOADS = tuple(CAMPAIGN_FANOUT) + tuple(UO_WORKLOADS)


@dataclass
class PassResult:
    """What one pass did, and the outputs the checks read."""

    wall_s: float
    runs: int
    cells: int
    steps: int
    attempted: int
    failed: int
    outputs: Dict[str, Any] = field(default_factory=dict)


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str, seed: int, workdir: str) -> "CampaignWorkload | EpidemicWorkload":
    if name in CAMPAIGN_FANOUT:
        return CampaignWorkload(name, seed, workdir)
    if name in UO_WORKLOADS:
        return EpidemicWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def seed_block(seed: int, size: int) -> int:
    """The first of the ``size`` run seeds that benchmark seed ``seed`` owns.

    Blocks of different benchmark seeds are disjoint, so no two of them
    share a run, and seed 1 starts at run seed 1: the shipped spec's own
    ``base_seed``.
    """
    return 1 + (seed - 1) * size


def cell_key(coordinates: Dict[str, str]) -> str:
    return "/".join(coordinates[axis] for axis in ("assumption", "topology", "omissions"))


class CampaignWorkload:
    """``fig4-slice`` / ``fig4-slice-proc2``: the shipped Figure-4 campaign.

    A pass runs the campaign :data:`CAMPAIGN_SEEDS` times, at consecutive
    base seeds of the seed's block, so that no two campaigns share a run:
    one campaign's wall time hinges on its few slowest runs.
    """

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.fanout = CAMPAIGN_FANOUT[name]
        self.workdir = workdir
        #: Store bytes of the first campaign run sequentially, which the
        #: process-pool pass must reproduce exactly (see :meth:`prepare`).
        self.sequential_store = b""

    def setup(self) -> None:
        from repro.campaign import planner, spec

        self._runner = importlib.import_module("repro.campaign.runner")
        self._report = importlib.import_module("repro.campaign.report")
        self._store = importlib.import_module("repro.campaign.store")
        self.plans = []
        for index in range(CAMPAIGN_SEEDS):
            campaign = spec.campaign_from_file(SPEC_PATH)
            campaign.base.setdefault("backend", "auto")  # as `repro campaign run`
            campaign.base_seed = seed_block(self.seed, CAMPAIGN_SEEDS * campaign.runs) \
                + index * campaign.runs
            self.plans.append(planner.plan_campaign(campaign))

    def prepare(self) -> None:
        """Run the first campaign sequentially for the byte-identity check."""
        if self.fanout.get("jobs_backend") == "process":
            self.sequential_store = self._campaigns(
                self.plans[:1], CAMPAIGN_FANOUT["fig4-slice"])[0]["store"]

    def _campaigns(self, plans: List[Any], fanout: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Run each plan into a fresh store; return records, report and store bytes."""
        paths = [os.path.join(self.workdir, f"{self.name}-{index}.results.jsonl")
                 for index in range(len(plans))]
        outputs = []
        for plan, path in zip(plans, paths):
            store = self._store.ResultStore.create(
                path, plan.campaign.name, plan.campaign_hash)
            self._runner.run_campaign(plan, store, **fanout)
            records = store.cell_records
            outputs.append({"records": records,
                            "report": self._report.render_report(plan, records)})
        for output, path in zip(outputs, paths):
            with open(path, "rb") as handle:
                output["store"] = handle.read()
            os.remove(path)
        return outputs

    def run_pass(self) -> PassResult:
        begin = time.perf_counter()
        outputs = self._campaigns(self.plans, self.fanout)
        wall = time.perf_counter() - begin
        result = PassResult(wall_s=wall, runs=0, cells=0, steps=0, attempted=0,
                            failed=0, outputs={"campaigns": outputs})
        for plan, output in zip(self.plans, outputs):
            campaign = plan.campaign
            records = output["records"].values()
            ok = [record["result"] for record in records if record["status"] == "ok"]
            computed = [record for record in records if record["status"] != "na"]
            runs = sum(outcome["runs"] for outcome in ok)
            successes = sum(outcome["successes"] for outcome in ok)
            # A converged run executes its convergence step plus the
            # stability window; a run that does not converge spends the
            # whole step cap.
            result.steps += sum(sum(outcome["convergence_steps"]) for outcome in ok) \
                + successes * campaign.stability_window \
                + (runs - successes) * campaign.max_steps
            result.runs += runs
            result.cells += len(computed)
            result.attempted += len(computed)
            result.failed += sum(1 for record in computed if record["status"] == "error")
        return result

    def check(self, result: PassResult, reference: Dict[str, Any]) -> List[str]:
        problems: List[str] = []
        campaigns = result.outputs["campaigns"]
        for plan, output in zip(self.plans, campaigns):
            base_seed = plan.campaign.base_seed
            problems.extend(f"base seed {base_seed}: {problem}"
                            for problem in self._check_campaign(
                                output, reference["fig4-slice"].get(str(base_seed))))
        if self.sequential_store and campaigns[0]["store"] != self.sequential_store:
            problems.append("store records differ from the sequential run")
        return problems

    @staticmethod
    def _check_campaign(output: Dict[str, Any], pinned: Any) -> List[str]:
        """Verdict structure for every seed; pinned steps where recorded."""
        records = output["records"]
        problems: List[str] = []
        if len(records) != EXPECTED_CELLS:
            problems.append(f"{len(records)} cell records, expected {EXPECTED_CELLS}")
        for record in records.values():
            key = cell_key(record["coordinates"])
            status = record["status"]
            if (status == "na") != (key in EXPECTED_NA):
                problems.append(f"cell {key}: status {status}")
            elif status == "error":
                problems.append(f"cell {key}: error {record.get('error')}")
            elif status == "ok" and pinned is not None:
                outcome = record["result"]
                if outcome["successes"] != outcome["runs"]:
                    problems.append(f"cell {key}: verdict is not YES")
                if outcome["convergence_steps"] != pinned.get(key):
                    problems.append(
                        f"cell {key}: convergence_steps {outcome['convergence_steps']}"
                        f" != pinned {pinned.get(key)}")
        if "cells: 12/12 done, 5 n/a\n" not in output["report"]:
            problems.append("report does not fold to 12/12 cells done, 5 n/a")
        return problems


def _is_informed(state: Any) -> bool:
    from repro.protocols.catalog.epidemic import INFORMED

    return state == INFORMED


class EpidemicWorkload:
    """``uo-epidemic-*``: one-way epidemic on I3 under the UO adversary."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.population, self.backend, self.runs, self.max_steps = UO_WORKLOADS[name]

    def run_seeds(self) -> List[int]:
        first = seed_block(self.seed, self.runs)
        return [first + index for index in range(self.runs)]

    def prepare(self) -> None:
        """Nothing to prepare: every run's check is self-contained."""

    def setup(self) -> None:
        from repro.adversary.omission import UOAdversary
        from repro.engine.engine import SimulationEngine
        from repro.engine.fastpath import AgentCountPredicate
        from repro.interaction.models import get_model
        from repro.protocols.catalog.epidemic import (
            INFORMED,
            SUSCEPTIBLE,
            OneWayEpidemicProtocol,
        )
        from repro.protocols.state import Configuration
        from repro.scheduling.scheduler import RandomScheduler

        self._convergence = importlib.import_module("repro.engine.convergence")
        self._engine_class = SimulationEngine
        self._adversary_class = UOAdversary
        self._scheduler_class = RandomScheduler
        self._predicate_class = AgentCountPredicate
        self.model = get_model("I3")
        self.program = OneWayEpidemicProtocol()
        self.initial = Configuration([INFORMED] + [SUSCEPTIBLE] * (self.population - 1))
        if self.backend == "array":
            # The first array compile belongs to set-up: it tabulates the
            # program once per process, and later runs reuse the table.
            self._engine(self.seed).execute(self.initial, 1, trace_policy="counts-only")

    def _engine(self, run_seed: int) -> Any:
        return self._engine_class(
            self.program, self.model, self._scheduler_class(self.population, seed=run_seed),
            adversary=self._adversary_class(
                self.model, rate=UO_RATE, max_per_gap=UO_MAX_PER_GAP, seed=run_seed),
            backend=self.backend)

    def run_pass(self) -> PassResult:
        outcomes: List[Tuple[int, ...]] = []
        failed = 0
        begin = time.perf_counter()
        for run_seed in self.run_seeds():
            try:
                result = self._convergence.run_until_stable(
                    self._engine(run_seed), self.initial,
                    self._predicate_class(_is_informed),
                    max_steps=self.max_steps, trace_policy="counts-only",
                    materialize_final=False)
            except Exception as error:  # a raising run is counted, not fatal
                failed += 1
                outcomes.append((run_seed, repr(error)))
                continue
            outcomes.append((run_seed, bool(result.converged), result.steps_executed,
                             result.steps_to_convergence, result.omissions))
        wall = time.perf_counter() - begin
        steps = sum(outcome[2] for outcome in outcomes if len(outcome) == 5)
        return PassResult(
            wall_s=wall, runs=self.runs - failed, cells=1, steps=steps,
            attempted=self.runs, failed=failed, outputs={"runs": outcomes})

    def check(self, result: PassResult, reference: Dict[str, Any]) -> List[str]:
        problems: List[str] = []
        for outcome in result.outputs["runs"]:
            if len(outcome) != 5:
                problems.append(f"run seed {outcome[0]}: raised {outcome[1]}")
            elif not outcome[1]:
                problems.append(f"run seed {outcome[0]}: did not converge")
        if self.seed == DEFAULT_SEED:
            observed = [list(outcome[2:]) for outcome in result.outputs["runs"]]
            if observed != reference[self.name]:
                problems.append(
                    f"(steps_executed, steps_to_convergence, omissions) per run "
                    f"{observed} != pinned {reference[self.name]}")
        return problems
