#!/usr/bin/env python3
"""The perf ledger: one command for every performance number of the repo.

One run of one workload (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/ledger/run.py --workload serve-zipf --seed 17 --seconds 15 --trace 0

prints each metric by name and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A lost request, a violated invariant or a digest mismatch exits
non-zero before any number is printed.

The whole ledger — every workload in a fresh interpreter, ``--repeats``
untraced runs and one traced run each — and the comparison of two::

    python3 benchmarks/ledger/run.py [--seed 17] [--seconds 15] [--repeats 3] [--out FILE]
    python3 benchmarks/ledger/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

from ledger_metrics import END_TO_END, compare, format_rows  # noqa: E402
from ledger_workloads import WORKLOADS, run_workload  # noqa: E402

RUN_SECONDS = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(args: argparse.Namespace) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:16.6f} {metric['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run in a fresh interpreter: (result, detail)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_ledger(args: argparse.Namespace) -> int:
    ledger = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": args.repeats,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    # Round-robin, so each workload's runs are minutes apart: a slow
    # phase of the machine then costs every workload one run, and the
    # median of a workload's runs survives it.
    runs: dict[str, list] = {workload.name: [] for workload in WORKLOADS}
    for __ in range(args.repeats):
        for workload in WORKLOADS:
            runs[workload.name].append(_child(workload.name, args.seed, args.seconds, 0))
    for workload in WORKLOADS:
        results = [result for result, __ in runs[workload.name]]
        details = [detail for __, detail in runs[workload.name]]
        traced, traced_detail = _child(workload.name, args.seed, args.seconds, 1)
        entry = ledger["workloads"][workload.name] = {
            "why": workload.why,
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "runs": details,
            "traced_run": traced_detail,
        }
        print(f"{workload.name}: {entry['failed']} failed of {entry['attempted']}")
        for metric in END_TO_END:
            values = [result["metrics"][metric.name]["value"] for result in results]
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
                "median": statistics.median(values),
                "runs": values,
                "n": [detail["grants"] for detail in details],
            }
            print(f"  {metric.name:24s} {statistics.median(values):14.4f} {metric.unit}")
        for name, value in traced["metrics"].items():
            print(f"  {name:36s} {value['value']:14.6f} {value['unit']}")
    text = json.dumps(ledger, indent=1) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def run_compare(args: argparse.Namespace) -> int:
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    rows, passed = compare(a, b)
    print(format_rows(rows))
    print("PASS" if passed else "FAIL: B is worse than A beyond a bound")
    return 0 if passed else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return run_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (whole ledger only)")
    parser.add_argument("--out", help="write the ledger to this file (whole ledger only)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_ledger(args)


if __name__ == "__main__":
    raise SystemExit(main())
