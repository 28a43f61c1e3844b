#!/usr/bin/env python3
"""Run the benchmark on every workload of BENCHMARK.json and record it.

    python3 scripts/bench_record.py --out BENCH_6.json --label change --seed 0
    python3 scripts/bench_record.py --out BENCH_6.json --label parent \\
            --checkout ../ringrsa-parent --seed 0

Each workload runs as `python3 perfbench/run.py --workload <name> ...` in
the checkout (this repository by default), so a second checkout measures
another commit's code.  One entry per run is appended to the output file
(created if missing): the label, the arguments, the checkout's commit and
whether its src/ or perfbench/ differ from that commit, the environment
stamp of the run and its result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def run_workload(checkout: Path, spec: dict, args, workload: str) -> dict:
    argv = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    *_, details_line, result_line = proc.stdout.splitlines()
    return {
        "label": args.label,
        "workload": workload,
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "environment": json.loads(details_line)["details"]["environment"],
        "result": json.loads(result_line),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to append to")
    parser.add_argument("--label", required=True, help="name of the code measured, e.g. parent")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository whose code runs")
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = args.out if args.out.is_absolute() else ROOT / args.out
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    checkout = args.checkout.resolve()
    for workload in args.workload or names:
        entry = run_workload(checkout, spec, args, workload)
        record["runs"].append(entry)
        # write after every run, so an interrupted sweep keeps what it measured
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        metrics = entry["result"]["metrics"]
        summary = ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items() if v["value"] is not None)
        print(f"{args.label} {workload} seed {args.seed}: {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
