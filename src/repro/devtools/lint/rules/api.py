"""Public-API discipline rules (``API0xx``).

The stable import surface lives in :mod:`repro.api`; everything else
(``repro.jobs``, ``repro.scheduler.engine``, ...) is internal
layout that may move between releases.  Two disciplines keep that
promise honest:

* library code must not import *deprecated* names — the shims exist so
  downstream users get a ``DeprecationWarning`` cycle, not so the
  project keeps depending on them internally;
* example code (the ``examples`` context) must import only from the
  facade, because examples are the import style users copy.
"""

from __future__ import annotations

import ast

from ..framework import Rule, register_rule

__all__ = ["StableApiImportRule", "DEPRECATED_NAMES"]

#: Deprecated public names mapped to the replacement each shim points at.
DEPRECATED_NAMES = {
    "ResilientCrowdMaxJob": (
        "pass resilience=ResiliencePolicy(...) to CrowdMaxJob instead"
    ),
}

#: The one module examples are allowed to import ``repro`` through.
_FACADE = "repro.api"


def _is_repro_module(module: str | None, level: int) -> bool:
    """Whether an import target resolves inside the ``repro`` package."""
    if level > 0:
        return True
    if module is None:
        return False
    return module == "repro" or module.startswith("repro.")


def _is_facade(module: str | None) -> bool:
    """Whether ``module`` is the stable facade itself."""
    return module == _FACADE or (
        module is not None and module.startswith(_FACADE + ".")
    )


@register_rule
class StableApiImportRule(Rule):
    """Imports must respect the stable ``repro.api`` surface."""

    rule_id = "API001"
    summary = "import bypasses the stable repro.api surface"
    rationale = (
        "repro.api is the only surface with a compatibility guarantee. "
        "Library code importing a deprecated shim re-entrenches the old "
        "API it is supposed to be retiring; an example importing internal "
        "modules teaches users an import style that breaks when the "
        "layout changes."
    )
    contexts = frozenset({"src", "examples"})

    def visit_Import(self, node: ast.Import) -> None:
        if self.source.context == "examples":
            for alias in node.names:
                if _is_repro_module(alias.name, 0) and not _is_facade(alias.name):
                    self.report(
                        alias,
                        f"example imports {alias.name!r} directly; import"
                        f" through the stable {_FACADE!r} facade",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not _is_repro_module(node.module, node.level):
            self.generic_visit(node)
            return
        for alias in node.names:
            hint = DEPRECATED_NAMES.get(alias.name)
            if hint is not None:
                # Reported on the alias (not the statement), so a
                # suppression can sit on the offending name inside a
                # multi-line import list.
                self.report(
                    alias,
                    f"deprecated name {alias.name!r} imported; {hint}",
                )
        if self.source.context == "examples" and not _is_facade(node.module):
            shown = ("." * node.level) + (node.module or "")
            self.report(
                node,
                f"example imports {shown!r} directly; import through the"
                f" stable {_FACADE!r} facade",
            )
        self.generic_visit(node)
