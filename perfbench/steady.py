"""Steadiness mode: do repeated runs of the same code agree within the bounds?

Runs two interleaved sets of runs per workload, every run a fresh
``run.py`` process with its own seed, alternating which set goes first.
For each end-to-end metric it prints each set's median and spread (the
distance between the first and third quartile as a share of the median,
from ``statistics.quantiles(values, n=4)``) and whether the sets agree:
both spreads within the metric's bound (``setup_s`` exempt) and the
second median no worse than the first by more than the bound.

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json

Exits nonzero when any run fails its checks or any metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One fresh benchmark process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result: dict[str, Any] = json.loads(lines[-1])
    return result


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def compare(spec: dict[str, Any], sets: list[list[dict[str, Any]]]) -> list[dict[str, Any]]:
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        worse = worse_by(medians[0], medians[1], metric["better"])
        bound = metric["bound"]
        agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
        rows.append({"name": name, "bound": bound, "medians": medians, "spreads": spreads,
                     "second_worse_by": worse, "agree": agree})
    return rows


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="first seed; each run gets its own")
    parser.add_argument("--out", help="write the figures as JSON to this file")
    args = parser.parse_args(argv)

    runs: dict[str, list[list[dict[str, Any]]]] = {w: [[], []] for w in args.workloads}
    failures: list[str] = []
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for workload in args.workloads:
                seed = args.seed + 1000 * s + i
                try:
                    result = run_once(workload, seed, args.seconds)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                    print(f"{workload} set {s} seed {seed}: FAILED {exc}", flush=True)
                    failures.append(f"{workload} seed {seed}")
                    continue
                runs[workload][s].append(result)
                print(f"{workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok = not failures
    report: dict[str, Any] = {"runs_per_set": args.runs, "seconds": args.seconds,
                              "failed_runs": failures, "workloads": {}}
    for workload, sets in runs.items():
        correct = all(r["correct"] and r["failed"] == 0 for runs_ in sets for r in runs_)
        ok = ok and correct
        print(f"\n{workload}: all runs correct: {correct}")
        print(f"  {'metric':<16} {'bound':>6} " + " ".join(
            f"{'median' + str(s):>14} {'spread' + str(s):>8}" for s in (0, 1)))
        rows = compare(spec, sets)
        for row in rows:
            ok = ok and row["agree"]
            cells = " ".join(f"{m:>14.4f} {sp:>8.3f}"
                             for m, sp in zip(row["medians"], row["spreads"]))
            print(f"  {row['name']:<16} {row['bound']:>6.2f} {cells} "
                  f"worse {row['second_worse_by']:+.3f} {'ok' if row['agree'] else 'DISAGREE'}")
        report["workloads"][workload] = {"correct": correct, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
