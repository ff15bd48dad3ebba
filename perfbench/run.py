"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced and a traced phase, each after its own set-up, and prints the
per-layer table.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import sys

import harness

#: Every runnable workload.  ``paper_sweep`` is not in ``BENCHMARK.json``:
#: its large instances are memory-bound and swing with the host (see
#: WORKLOADS.md), but it stays runnable for the paper-scale breakdown.
WORKLOADS = ("shared_pools", "http_load", "paper_sweep")


def build(name: str, seed: int) -> harness.Workload:
    """The workload object for ``name`` (imports the program lazily)."""
    if name == "paper_sweep":
        from paper_sweep import PaperSweep

        return PaperSweep(seed)
    if name == "shared_pools":
        from shared_pools import SharedPools

        return SharedPools(seed)
    from http_load import HttpLoad

    return HttpLoad(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span to this JSONL file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    harness.use_checkout_source()
    from spans import SpanRecorder

    workload = build(args.workload, args.seed)
    recorders: list[SpanRecorder] = []

    def recorder() -> SpanRecorder:
        recorders.append(SpanRecorder(keep_spans=args.spans is not None))
        return recorders[-1]

    metrics, phase, lines = harness.measure(workload, args.seconds, bool(args.trace), recorder)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    for problem in phase.problems:
        print(f"CHECK FAILED: {problem}")
    if args.spans and recorders:
        print(f"# wrote {recorders[0].write_spans(args.spans)} spans to {args.spans}")
    print(harness.result_line(phase, metrics, bool(args.trace)))
    sys.stdout.flush()
    return 0 if not phase.problems and phase.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
