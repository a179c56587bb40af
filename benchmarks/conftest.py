"""Benchmark fixtures: a reporter that persists every figure's table.

``pytest benchmarks/ --benchmark-only`` prints pytest-benchmark's timing
table; the *figure data* (the series the paper plots) is written by the
``report`` fixture into ``benchmarks/results/<figure>.txt`` and echoed to
stdout (visible with ``-s``).  EXPERIMENTS.md summarises those files.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """report(name, text): persist and echo one figure's table."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        print(f"\n{text}\n[written to {path}]")

    return _report
