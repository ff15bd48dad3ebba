"""``FLOW003`` — journal-before-store effect ordering.

The durability design (``docs/DURABILITY.md``) recovers a killed run by
replaying the append-only journal; the SQLite comparison store is a
cache *derived from* the journal.  That only holds if, on every path
that persists comparison outcomes, the journal append (or the commit of
the tick's line) happens **before** the store write-through — a store write that lands
without its journal record makes a crash unrecoverable into a
bit-identical resume (the PR 7/8 invariant).

The rule runs over :data:`SCOPE_PREFIXES` (the scheduler engine and the
durability layer — the layers that own the ordering; the memo cache's
deferred write-through in ``repro.scheduler.cache`` is driven *by* the
engine and is checked at its call sites).  Within each function, every
store-write call (``store_batch`` / ``write_entries`` /
``flush_pending``) must be preceded in source order by a journal call
(``<journal>.append`` / ``<journal>.commit_group`` on a receiver that
names the journal, or a call to a ``*journal*`` helper such as the
engine's ``_journal_serve`` / ``_journal_tick``).
Source order approximates path order: the code under analysis settles
batches in straight-line blocks, and a branch that genuinely reorders
effects should be restructured, not excused.
"""

from __future__ import annotations

import ast

from ..framework import FlowRule, register_flow_rule
from ..project import ModuleInfo

__all__ = ["EffectOrderingRule"]

#: Modules whose functions must journal before they store.
SCOPE_PREFIXES = ("repro.scheduler.engine", "repro.durability")

#: Callee names that commit comparison outcomes to the store.
_STORE_CALLS = frozenset({"store_batch", "write_entries", "flush_pending"})

#: Attribute calls counted as journal appends when the receiver chain
#: names the journal (so ``list.append`` never qualifies).
_JOURNAL_CALLS = frozenset({"append", "commit_group"})


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in SCOPE_PREFIXES
    )


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _is_append_name(name: str) -> bool:
    """``journal``-flavoured *function* names (``JournalMismatchError``,
    a class constructor, is not an append)."""
    return "journal" in name.lower() and not name[:1].isupper()


def _is_journal_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if _is_append_name(func.attr):
            return True
        if func.attr in _JOURNAL_CALLS:
            return "journal" in _dotted(func.value).lower()
        return False
    if isinstance(func, ast.Name):
        return _is_append_name(func.id)
    return False


def _is_store_call(call: ast.Call) -> bool:
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr in _STORE_CALLS


@register_flow_rule
class EffectOrderingRule(FlowRule):
    """Journal appends must dominate store write-throughs."""

    rule_id = "FLOW003"
    summary = "store write-through before any journal append on this path"
    rationale = (
        "Crash recovery replays the journal and treats the SQLite store "
        "as derived state; a store write that precedes (or never sees) "
        "its journal append makes a mid-crash run unrecoverable into a "
        "bit-identical resume."
    )

    def check(self) -> list:
        for module in self.project:
            if not _in_scope(module.name):
                continue
            for qualname, node in sorted(module.functions.items()):
                self._check_function(module, node)
        return self.violations

    def _check_function(
        self, module: ModuleInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        journaled = False
        for call in calls:
            if _is_journal_call(call):
                journaled = True
            elif _is_store_call(call) and not journaled:
                assert isinstance(call.func, ast.Attribute)
                self.report(
                    module,
                    call,
                    f"{call.func.attr}(...) commits to the store before any"
                    " journal append/commit_group in this function; the"
                    " journal record must land first (see docs/DURABILITY.md)",
                )
