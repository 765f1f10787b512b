#!/usr/bin/env python3
"""Benchmark of the paper's workload: Figure-4 campaign cells end to end,
and each layer timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-slice --seed 1 --seconds 35 --trace 0

``--trace 0`` times untraced passes of the workload in a closed loop (one
pass after another, never more than the workload's own two pool workers)
for ``--seconds`` seconds, and reports the end-to-end metrics: medians over
the passes, plus ``setup_s`` as the median of fresh set-up processes.
``--trace 1`` runs a traced set-up and traced passes (every layer's public
functions wrapped by ``layers.Tracer``) next to untraced passes, and
reports the per-layer metrics.  Every pass's outputs are checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check fails.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, List

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes, at least, whose set-up time ``setup_s`` takes the
#: median of.
SETUP_PROBES = 5
#: Passes a run makes at least, however long they take.
MIN_PASSES = 1

END_TO_END = (
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print the seconds")
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> None:
    """Time one cold set-up: imports, spec load and plan, or engine build."""
    begin = time.perf_counter()
    workloads.make_workload(name, seed, workdir=ROOT).setup()  # writes nothing
    print(repr(time.perf_counter() - begin))


def setup_seconds(name: str, seed: int) -> float:
    """One cold set-up, timed in a fresh process."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(completed.stdout.strip().splitlines()[-1])


def stop_helpers() -> None:
    """Wait for every helper process the run started to end.

    Pool workers are joined when their pool closes.  The shared-memory
    transport also starts multiprocessing's resource tracker, which would
    otherwise outlive this process for a moment: closing its pipe stops it,
    and ``_stop`` waits for it to exit.
    """
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (a pool
    worker or a set-up probe), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """The passes of one benchmark run, with their checks."""

    def __init__(self, workload: Any, reference: Dict[str, Any]) -> None:
        self.workload = workload
        self.reference = reference
        self.passes: List[Any] = []
        self.problems: List[str] = []

    def one_pass(self) -> Any:
        result = self.workload.run_pass()
        self.passes.append(result)
        for problem in self.workload.check(result, self.reference):
            if problem not in self.problems:
                self.problems.append(problem)
        return result

    def loop(self, seconds: float, minimum: int,
             between: Callable[[], None] = lambda: None) -> List[Any]:
        """Closed loop: start a pass after the previous one ends.

        ``between`` runs after every pass.  A pass starts while it is
        expected to end, with its ``between``, less than half an iteration
        after ``seconds``, so runs last about ``seconds`` however long a
        pass takes.
        """
        done: List[Any] = []
        iterations: List[float] = []
        deadline = time.perf_counter() + seconds
        while len(done) < minimum or \
                time.perf_counter() + statistics.median(iterations) / 2 < deadline:
            begin = time.perf_counter()
            done.append(self.one_pass())
            between()
            iterations.append(time.perf_counter() - begin)
        return done

    @property
    def attempted(self) -> int:
        return sum(result.attempted for result in self.passes)

    @property
    def failed(self) -> int:
        return sum(result.failed for result in self.passes)


def end_to_end(passes: List[Any], setup: List[float], rss: float) -> Dict[str, List[float]]:
    return {
        "wall_s": [p.wall_s for p in passes],
        "runs_per_s": [p.runs / p.wall_s for p in passes],
        "cells_per_s": [p.cells / p.wall_s for p in passes],
        "steps_per_s": [p.steps / p.wall_s for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [rss],
    }


def traced_layers(run: Run, seconds: float) -> Dict[str, float]:
    """A traced set-up, then untraced and traced passes in turn."""
    tracer = layers.Tracer()
    tracer.install()
    try:
        run.workload.setup()
    finally:
        tracer.uninstall()
    setup_stats = tracer.snapshot()
    tracer.reset()
    run.workload.prepare()

    # Alternating the two kinds of pass exposes both to the same drift in
    # the machine's speed, which ``trace.overhead_ratio`` compares.
    traced: List[Any] = []
    unattributed: List[float] = []

    def traced_pass() -> None:
        tracer.install()
        root_before = tracer.root_s
        try:
            result = run.one_pass()
        finally:
            tracer.uninstall()
        traced.append(result)
        unattributed.append(result.wall_s - (tracer.root_s - root_before))

    untraced = run.loop(seconds, 1, between=traced_pass)
    per_pass = {key: value / len(traced) for key, value in tracer.stats.items()}
    traced_steps = per_pass.get("engine.steps", 0.0)
    if traced_steps != traced[0].steps:
        run.problems.append(
            f"traced engine.steps {traced_steps} != the pass's {traced[0].steps} "
            "executed steps (a run escaped the tracer)")
    for key, value in setup_stats.items():
        per_pass[key] = per_pass.get(key, 0.0) + value
    return layers.layer_metrics(
        per_pass,
        unattributed_s=statistics.median(unattributed),
        overhead_ratio=statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")) \
            or not os.path.isfile(os.path.join(ROOT, "examples", "figure4_omission_sweep.json")):
        print(f"perfbench: no repro checkout around {HERE} (need src/repro and "
              "examples/figure4_omission_sweep.json)", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 1:
        print("perfbench: --seed must be at least 1", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-")
    try:
        reference = workloads.load_reference()
        run = Run(workloads.make_workload(args.workload, args.seed, workdir), reference)
        if args.trace:
            values = traced_layers(run, args.seconds)
            units = dict(layers.LAYER_METRICS)
            samples = {name: [value] for name, value in values.items()}
        else:
            # Set-up probes are spread over the run, so that they sample
            # the machine's speed over the run rather than over one moment.
            setup: List[float] = []

            def probe() -> None:
                setup.append(setup_seconds(args.workload, args.seed))

            probe()
            run.workload.setup()
            run.workload.prepare()
            passes = run.loop(args.seconds, MIN_PASSES, between=probe)
            while len(setup) < SETUP_PROBES:
                probe()
            samples = end_to_end(passes, setup, peak_rss_mb())
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.passes)}  "
          f"trace {args.trace}")
    for name, values in samples.items():
        print(f"  {name:<26} {statistics.median(values):>14.6g} {units[name]:<6} "
              f"(median of {len(values)})")
    error_ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'error_ratio':<26} {error_ratio:>14.6g} ratio  "
          f"({run.failed} of {run.attempted} attempted)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": statistics.median(values), "unit": units[name]}
                    for name, values in samples.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        code = main(sys.argv[1:])
    finally:
        stop_helpers()
    sys.exit(code)
