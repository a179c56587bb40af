"""``python -m bench`` — run, repeat and compare the Elaps benchmark.

``run --workload W --seed N --seconds S --trace 0|1`` is the form the
driver calls: one workload, and the result object as the last line of
standard output.  Without ``--workload`` every workload runs, each in its
own process (so peak memory is per workload), plain and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from . import ROOT


def _run_one(args) -> int:
    from . import report, workloads

    host = report.host_fingerprint()
    runner = workloads.traced_run if args.trace else workloads.plain_run
    values, attempted, failed, failures = runner(
        args.workload, args.seed, args.seconds, args.scale
    )
    kind = "per_layer" if args.trace else "end_to_end"
    result = report.contract_line(values, kind, attempted, failed)
    report.append_history(
        report.record_for(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
            host, result,
        )
    )
    report.print_table(args.workload, result, failures)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _spawn(workload: str, seed: int, seconds: float, trace: int, scale: float):
    """One workload in a fresh interpreter; returns (exit code, result)."""
    completed = subprocess.run(
        [
            sys.executable, "-m", "bench", "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale", str(scale),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if completed.returncode not in (0, 1) or not lines:
        return completed.returncode or 2, None
    return completed.returncode, json.loads(lines[-1])


def _run_all(args, traces) -> int:
    from . import report

    names = [w["name"] for w in report.declaration()["workloads"]]
    status = 0
    results = {}
    for workload in names:
        for trace in traces:
            code, result = _spawn(workload, args.seed, args.seconds, trace, args.scale)
            status = max(status, code)
            results[f"{workload}:{'traced' if trace else 'plain'}"] = result
    print(json.dumps(results))
    return status


def _repeat(args) -> int:
    from . import report

    names = args.workload or [w["name"] for w in report.declaration()["workloads"]]
    host = report.host_fingerprint()
    records = []
    status = 0
    for index in range(args.n):
        seed = args.seed + index
        for workload in names:
            code, result = _spawn(workload, seed, args.seconds, 0, args.scale)
            status = max(status, code)
            if result is not None:
                records.append(
                    report.record_for(
                        workload, seed, args.seconds, False, args.scale, host, result
                    )
                )
    report.summarize(records)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(records, handle, indent=1)
    return status


def _compare(args) -> int:
    from . import report

    worse = report.compare(report.load_records(args.before), report.load_records(args.after))
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=None,
                         help="measured seconds per run (default: run_seconds "
                              "of BENCHMARK.json)")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="population scale; below 1 is for smoke tests only")

    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", default=None)
    run.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                     help="0 prints end-to-end metrics, 1 per-layer metrics")
    common(run)

    repeat = commands.add_parser("repeat", help="n plain runs per workload, one seed each")
    repeat.add_argument("-n", type=int, default=2)
    repeat.add_argument("--workload", action="append")
    repeat.add_argument("--out", help="write the records here for `compare`")
    common(repeat)

    compare = commands.add_parser("compare", help="verdict per metric and workload")
    compare.add_argument("before")
    compare.add_argument("after")

    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: the program under test (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    if args.command == "compare":
        return _compare(args)
    if args.seconds is None:
        from . import report

        args.seconds = float(report.declaration()["run_seconds"])
    if args.command == "repeat":
        return _repeat(args)
    if args.workload is None:
        return _run_all(args, (0, 1) if args.trace is None else (args.trace,))
    args.trace = args.trace or 0
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
