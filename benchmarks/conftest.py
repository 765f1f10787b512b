"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure or theorem of the paper (see the
README's "Paper → module map") and prints the corresponding table so the
textual output of ``pytest benchmarks/ --benchmark-only -s`` reads like the
paper's results section.  The timing numbers collected by pytest-benchmark
measure the cost of regenerating each artifact.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.reporting import format_table


def emit(title: str, headers, rows) -> None:
    """Print a titled table to stdout (shown with ``pytest -s`` and in EXPERIMENTS.md)."""
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))
    sys.stdout.flush()


@pytest.fixture
def table_printer():
    """Fixture exposing :func:`emit` to benchmark functions."""
    return emit
