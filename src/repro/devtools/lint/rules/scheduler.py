"""Scheduler rules (``SCH0xx``).

The fused settlement path is a correctness *and* performance contract:
every platform purchase made by scheduler code must flow through the
tick's fusion queue (``_settle_requests`` → ``_flush_fused``) so that
cache visibility, journal group framing, admission-order charging, and
the ``batch_fused`` telemetry all stay consistent.  A direct
``compare_batch`` / ``submit_batch`` call sprinkled into scheduler code
silently bypasses all four.

The one sanctioned direct call — ``_buy``, the lone ``compare_batch``
for requests the fast path cannot take (gold probes, fault plans,
capped ledgers, fallback pools), reached from ``_settle_requests``
after the fused buffer is flushed — carries a justified same-line
suppression, which doubles as documentation that it is deliberate and
keeps it the only one.
"""

from __future__ import annotations

import ast

from ..framework import Rule, register_rule

__all__ = ["DirectPlatformBatchRule"]

#: Platform entry points that buy judgments outside the fusion queue.
_BATCH_CALLS = frozenset({"compare_batch", "submit_batch"})


@register_rule
class DirectPlatformBatchRule(Rule):
    """Direct platform batch call in scheduler code, bypassing fusion."""

    rule_id = "SCH001"
    summary = "direct platform batch call bypasses the scheduler fusion queue"
    rationale = (
        "Scheduler code that calls compare_batch/submit_batch directly "
        "skips the tick's fused settlement: its spend is invisible to "
        "the cross-job cache overlap check, lands outside the journal "
        "group framing, and breaks the admission-order charge "
        "discipline the bit-identity contract rests on. Route requests "
        "through the fusion queue; only the lone buy for "
        "fast-path-ineligible requests (_buy) justifies a suppression."
    )
    contexts = frozenset({"src"})

    def check(self) -> list:
        # Scoped to the scheduler package: elsewhere these calls are
        # the normal platform API.
        if "repro/scheduler/" not in self.source.path.as_posix():
            return []
        self.visit(self.source.tree)
        return self.violations

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _BATCH_CALLS:
            self.report(
                node,
                f".{func.attr}() called directly from scheduler code; "
                "post the request to the fusion queue instead (only "
                "the lone buy for fast-path-ineligible requests is "
                "exempt)",
            )
        self.generic_visit(node)
