"""What a run leaves behind: the declared metric set, the result record,
the history file, and the verdicts of ``compare``.

``BENCHMARK.json`` at the repository root is the one declaration of the
metric names, units, directions and bounds; nothing here repeats them.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Dict, Iterable, List, Mapping

import numpy

from . import ROOT

HISTORY = os.path.join(ROOT, "bench", "results", "history.jsonl")


def declaration() -> Dict:
    """The parsed ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared(kind: str) -> Dict[str, Dict]:
    """``end_to_end`` or ``per_layer`` metrics by name."""
    return {metric["name"]: metric for metric in declaration()[kind]}


def contract_line(
    values: Mapping[str, float], kind: str, attempted: int, failed: int
) -> Dict:
    """The result object the driver reads: every declared metric of
    ``kind``, each with its declared unit.

    An end-to-end metric the run did not produce is an error.  A layer a
    workload never enters produces nothing and reads 0; a value under a
    name that is not declared is an error either way (a misspelt metric
    must not vanish).
    """
    metrics = {}
    names = declared(kind)
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"undeclared {kind} metrics: {sorted(unknown)}")
    for name, metric in names.items():
        if name not in values and kind == "end_to_end":
            raise KeyError(f"the run produced no value for declared metric {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return {
        "correct": failed == 0,
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }


def host_fingerprint() -> Dict:
    """Enough about the host to tell whether two results are comparable."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_average": list(os.getloadavg()),
    }


def append_history(record: Dict) -> None:
    """One line per run in ``bench/results/history.jsonl`` (git-ignored)."""
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def record_for(
    workload: str, seed: int, seconds: float, trace: bool, scale: float,
    host: Dict, result: Dict,
) -> Dict:
    return {
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "host": host,
        "result": result,
    }


def print_table(workload: str, result: Dict, failures: Iterable[str]) -> None:
    """Every metric by name with its unit, for a human."""
    print(f"== {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    for failure in list(failures)[:10]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# repeat / compare
# ----------------------------------------------------------------------
def spread(values: List[float]) -> float:
    """Interquartile distance over the median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def _series(records: List[Dict]) -> Dict[tuple, List[float]]:
    series: Dict[tuple, List[float]] = {}
    for record in records:
        if record["trace"]:
            continue
        for name, entry in record["result"]["metrics"].items():
            series.setdefault((record["workload"], name), []).append(entry["value"])
    return series


def summarize(records: List[Dict]) -> None:
    """Median, quartiles and spread against the bound, per metric × workload."""
    bounds = declared("end_to_end")
    print(f"{'workload':<14} {'metric':<22} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(_series(records).items()):
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        print(f"{workload:<14} {name:<22} {len(values):>3} {q1:>12.5g} "
              f"{statistics.median(values):>12.5g} {q3:>12.5g} "
              f"{spread(values):>7.3f} {bounds[name]['bound']:>6.2f}")


def verdict(metric: Dict, before: List[float], after: List[float]) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for one pairing.

    Worse means the median moved the wrong way by more than the bound.
    When either side's own spread exceeds the bound the medians cannot be
    told apart — ``unresolved`` — unless every run of one side beats every
    run of the other.
    """
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    a, b = statistics.median(before), statistics.median(after)
    if not a:
        return "unresolved"
    gain = (b - a) / abs(a) if higher else (a - b) / abs(a)
    all_better = (min(after) > max(before)) if higher else (max(after) < min(before))
    all_worse = (max(after) < min(before)) if higher else (min(after) > max(before))
    if max(spread(before), spread(after)) > bound:
        if all_better:
            return "better"
        if all_worse and gain < -bound:
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if all_better and gain > spread(before):
        return "better"
    return "same"


def compare(before: List[Dict], after: List[Dict]) -> int:
    """Print one verdict per metric × workload; return how many are worse."""
    metrics = declared("end_to_end")
    a, b = _series(before), _series(after)
    worse = 0
    print(f"{'workload':<14} {'metric':<22} {'before':>12} {'after':>12} {'verdict':>11}")
    for key in sorted(set(a) & set(b)):
        outcome = verdict(metrics[key[1]], a[key], b[key])
        worse += outcome == "worse"
        print(f"{key[0]:<14} {key[1]:<22} {statistics.median(a[key]):>12.5g} "
              f"{statistics.median(b[key]):>12.5g} {outcome:>11}")
    return worse


def load_records(path: str) -> List[Dict]:
    """Records from a ``repeat --out`` file (JSON list) or a history file."""
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]
