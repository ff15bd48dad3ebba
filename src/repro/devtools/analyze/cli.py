"""The ``repro-analyze`` console entry point.

Usage::

    repro-analyze [paths ...] [--format text|json] [--select IDS]
                  [--ignore IDS] [--list-rules] [--artifact PATH]
                  [--budget [PATH]]

Exit codes: ``0`` clean, ``1`` violations (or unparsable files), ``2``
usage errors.  With no paths, analyzes ``src`` relative to the current
directory — the repository invocation CI uses.  ``--artifact`` writes
the call graph + findings atomically (``results/ANALYSIS_graph.json``
in CI); ``--budget`` switches to the suppression-debt ratchet
described in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..budget import DEFAULT_BUDGET_PATH, run_budget
from ..lint.reporters import render_json, render_rule_listing, render_text
from ..lint.walker import discover
from .engine import AnalysisEngine, AnalysisResult, build_graph_payload

# Rule modules self-register on import; this import is the registration.
from .framework import FLOW_REGISTRY
from . import rules as _rules  # noqa: F401  (imported for side effect)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for ``--help`` golden tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Whole-program dataflow/call-graph checks for the project's"
            " cross-module invariants (stage two of repro-lint)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule IDs to run exclusively (e.g. FLOW001,FLOW003)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack (ID, contexts, suppressibility, summary) and exit",
    )
    parser.add_argument(
        "--artifact",
        metavar="PATH",
        type=Path,
        help="write the call graph + findings to PATH atomically"
        " (CI uses results/ANALYSIS_graph.json)",
    )
    parser.add_argument(
        "--budget",
        nargs="?",
        const=DEFAULT_BUDGET_PATH,
        metavar="PATH",
        help="suppression-debt ratchet mode: compare per-rule disable counts"
        f" against the checked-in baseline (default: {DEFAULT_BUDGET_PATH})",
    )
    return parser


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _write_artifact(path: Path, result: AnalysisResult) -> None:
    """Persist the analysis artifact via the atomic writer."""
    from ...experiments.artifacts import write_json_atomic

    write_json_atomic(path, build_graph_payload(result))
    print(f"(wrote {path})")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the analyzer; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        selected = FLOW_REGISTRY.select(
            select=_split_ids(args.select), ignore=_split_ids(args.ignore)
        )
    except KeyError as exc:
        parser.error(f"unknown rule id: {exc.args[0]}")

    if args.list_rules:
        sys.stdout.write(render_rule_listing(selected, include_meta=True))
        return 0

    try:
        files = discover(args.paths)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    if args.budget is not None:
        code, output = run_budget(files, args.budget)
        sys.stdout.write(output)
        return code

    result = AnalysisEngine(rules=selected).analyze_files(files)
    renderer = render_json if args.format == "json" else render_text
    sys.stdout.write(renderer(result.report))
    if args.artifact is not None:
        _write_artifact(args.artifact, result)
    return 0 if result.report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
