"""The benchmark's own tests.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Tiny-size passes of every workload, the tracer's restore contract, and
negative tests showing that perturbed outputs fail the checks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: A seed whose outputs are not pinned: only the structural checks apply.
SEED = 7


def tiny(name: str, workdir: str, seed: int = SEED, campaign_runs: int = 2):
    """A set-up workload shrunk to a pass of a second or a few."""
    workload = workloads.make_workload(name, seed, workdir)
    if name in workloads.UO_WORKLOADS:
        workload.population = 2_000
        workload.runs = 1
    workload.setup()
    if name in workloads.CAMPAIGN_FANOUT:
        # One campaign, by default of two runs per cell: enough for the
        # process pool to fan out.
        workload.plans = workload.plans[:1]
        workload.plans[0].campaign.runs = campaign_runs
    workload.prepare()
    return workload


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_passes_its_checks(name, tmp_path):
    bench = run.Run(tiny(name, str(tmp_path)), workloads.load_reference())
    result = bench.one_pass()
    assert bench.problems == []
    assert result.runs >= 1 and result.steps > 0 and result.failed == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_restores_every_wrapped_attribute(name, tmp_path):
    import repro.engine.convergence as convergence
    import repro.engine.experiment as experiment
    from repro.interaction.models import OneWayModel

    originals = (convergence.run_until_stable, experiment.ProcessPoolExecutor,
                 vars(OneWayModel)["apply"])
    bench = run.Run(tiny(name, str(tmp_path)), workloads.load_reference())
    tracer = layers.Tracer()
    tracer.install()
    patched = tracer.patched()
    try:
        assert convergence.run_until_stable is not originals[0]
        result = bench.one_pass()
    finally:
        tracer.uninstall()
    assert len(patched) > 20
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert (convergence.run_until_stable, experiment.ProcessPoolExecutor,
            vars(OneWayModel)["apply"]) == originals
    assert tracer.patched() == []
    # The tracer saw every executed interaction, worker-side ones included.
    assert tracer.stats["engine.steps"] == result.steps
    assert bench.problems == []


def test_perturbed_campaign_records_fail_the_check(tmp_path):
    # The shipped spec itself: the first campaign of the pinned seed.
    workload = tiny("fig4-slice", str(tmp_path), seed=workloads.DEFAULT_SEED,
                    campaign_runs=4)
    reference = workloads.load_reference()
    result = workload.run_pass()
    assert workload.check(result, reference) == []

    records = result.outputs["campaigns"][0]["records"]
    skno = next(record for record in records.values()
                if record["coordinates"]["assumption"] == "knowledge-of-omissions")
    skno["result"]["convergence_steps"][0] += 1
    assert any("pinned" in problem for problem in workload.check(result, reference))
    skno["status"] = "error"
    assert any("error" in problem for problem in workload.check(result, reference))


def test_process_pool_store_must_match_the_sequential_run(tmp_path):
    workload = tiny("fig4-slice-proc2", str(tmp_path))
    reference = workloads.load_reference()
    result = workload.run_pass()
    assert workload.check(result, reference) == []

    output = result.outputs["campaigns"][0]
    output["store"] = output["store"].replace(b'"successes": 2', b'"successes": 1', 1)
    assert workload.check(result, reference) == [
        "store records differ from the sequential run"]


def test_perturbed_epidemic_runs_fail_the_check(tmp_path):
    workload = tiny("uo-epidemic-python", str(tmp_path), seed=workloads.DEFAULT_SEED)
    reference = workloads.load_reference()
    result = workload.run_pass()
    problems = workload.check(result, reference)
    assert len(problems) == 1 and "pinned" in problems[0]

    seed, _converged, *counts = result.outputs["runs"][0]
    result.outputs["runs"][0] = (seed, False, *counts)
    assert any("did not converge" in problem for problem in workload.check(result, reference))


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-slice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
