"""Smoke test of the benchmark itself (not part of tier-1: run it with
``python -m pytest bench/tests``).

Every workload runs at ``--scale 0.02`` through the same command line the
driver uses; the output is checked against the names and units declared in
``BENCHMARK.json``, and the in-process counts must repeat exactly.
"""

import concurrent.futures
import functools
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import report  # noqa: E402

DECLARATION = report.declaration()
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
IN_PROCESS = [w for w in WORKLOADS if w != "fanout_tcp"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
COUNTS = ("rounds_per_sub_kts", "bytes_down_per_sub_ts")


def _run(workload, trace, seed=5):
    completed = subprocess.run(
        DECLARATION["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def all_runs():
    """Every run the tests below look at, two at a time (one per core):
    plain and traced for each workload, and a second plain run of each
    in-process workload for the repeatability check."""
    wanted = [(w, t, 0) for w in WORKLOADS for t in (0, 1)]
    wanted += [(w, 0, 1) for w in IN_PROCESS]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda key: _run(key[0], key[1]), wanted)
        return dict(zip(wanted, results))


def run_bench(workload, trace, attempt=0):
    return all_runs()[(workload, trace, attempt)]


def check_against_declaration(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
        if kind == "end_to_end" and name not in COUNTS:
            # (a handful of subscribers over a handful of timestamps may
            # see no round at all; at the committed sizes they never do)
            assert entry["value"] > 0, f"{name} must never read 0"


def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= DECLARATION["run_seconds"] <= 60
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (DECLARATION["run_seconds"] + 17) <= 3420, "no room for set-up"
    names = WORKLOADS + [
        m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARATION[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(DECLARATION["per_layer"]) <= 128 and len(DECLARATION["end_to_end"]) <= 16


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_prints_every_end_to_end_metric(workload):
    check_against_declaration(run_bench(workload, 0), "end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = run_bench(workload, 1)
    check_against_declaration(result, "per_layer")
    if workload != "fanout_tcp":
        gap = result["metrics"]["bench.reconcile_gap_share"]["value"]
        assert abs(gap) < 0.10, "layer self-times must add up to the window"


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_in_process_counts_repeat_exactly(workload):
    first, second = run_bench(workload, 0), run_bench(workload, 0, attempt=1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_without_the_program_the_benchmark_refuses(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ has nothing to
    measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    completed = subprocess.run(
        DECLARATION["command"]
        + ["--workload", "event_storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_compare_verdicts():
    metric = {"better": "higher", "bound": 0.10}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert report.verdict(metric, steady, [v * 1.01 for v in steady]) == "same"
    assert report.verdict(metric, steady, [v * 1.30 for v in steady]) == "better"
    assert report.verdict(metric, steady, [v * 0.80 for v in steady]) == "worse"
    noisy = [70.0, 130.0, 100.0, 85.0, 120.0]
    assert report.verdict(metric, noisy, [v * 0.95 for v in noisy]) == "unresolved"
    lower = {"better": "lower", "bound": 0.10}
    assert report.verdict(lower, steady, [v * 1.30 for v in steady]) == "worse"
