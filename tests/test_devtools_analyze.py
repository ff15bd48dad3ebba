"""Tests for ``repro-analyze``: the FLOW pack, model, engine, and CLI.

Mirrors the ``test_devtools_rules.py`` pattern one stage up: per-rule
positive / negative / suppressed fixtures built from in-memory projects
(``Project.from_texts``), plus framework-level tests for the symbol
table and call graph, and the self-application gate — ``src/repro``
must analyze clean with every FLOW rule active.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analyze import (
    ANALYSIS_GRAPH_SCHEMA,
    AnalysisEngine,
    Project,
    build_call_graph,
    build_graph_payload,
    module_name_for_path,
    run_analysis,
)
from repro.devtools.analyze.cli import build_parser, main
from repro.devtools.lint.framework import EXTERNAL_KNOWN_IDS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

FLOW_IDS = ("FLOW001", "FLOW002", "FLOW003", "FLOW004")


def project_of(files):
    return Project.from_texts(
        {key: textwrap.dedent(value) for key, value in files.items()}
    )


def analyze(files):
    """Run the full FLOW pack over an in-memory project."""
    return AnalysisEngine().analyze_project(project_of(files))


def rule_ids(files):
    return [v.rule_id for v in analyze(files).report.violations]


def hits(files, rule_id):
    return [v for v in analyze(files).report.violations if v.rule_id == rule_id]


# ----------------------------------------------------------------------
# Project model
# ----------------------------------------------------------------------
class TestProjectModel:
    def test_module_names_from_fixture_keys(self):
        project = project_of(
            {
                "src/repro/core/__init__.py": "x = 1\n",
                "repro/scheduler/engine.py": "y = 2\n",
            }
        )
        assert set(project.modules) == {"repro.core", "repro.scheduler.engine"}
        assert project.modules["repro.core"].is_package

    def test_module_name_for_path_walks_init_chain(self):
        path = SRC / "repro" / "scheduler" / "engine.py"
        assert module_name_for_path(path) == "repro.scheduler.engine"
        init = SRC / "repro" / "telemetry" / "__init__.py"
        assert module_name_for_path(init) == "repro.telemetry"

    def test_symbol_table_collects_defs_imports_exports(self):
        project = project_of(
            {
                "repro/mod.py": """
                    from .core import helper
                    CONST = 3

                    class Thing:
                        def method(self):
                            return CONST

                    def func():
                        return helper()

                    __all__ = ["Thing", "func"]
                """
            }
        )
        info = project.modules["repro.mod"]
        assert "Thing.method" in info.functions
        assert "func" in info.functions
        assert "Thing" in info.classes
        assert info.top_bindings["CONST"] == 3  # line number of the assignment
        assert info.imports["helper"].module == "repro.core"
        assert info.export_names() == ["Thing", "func"]

    def test_resolve_follows_reexport_chain(self):
        project = project_of(
            {
                "repro/core/maxfinder.py": "def find_max(xs):\n    return max(xs)\n",
                "repro/core/__init__.py": "from .maxfinder import find_max\n",
                "repro/api.py": "from .core import find_max\n__all__ = ['find_max']\n",
            }
        )
        assert (
            project.resolve("repro.api", "find_max")
            == "repro.core.maxfinder.find_max"
        )

    def test_resolve_unknown_symbol_is_none(self):
        project = project_of({"repro/core.py": "def f():\n    return 1\n"})
        assert project.resolve("repro.core", "ghost") is None


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_direct_and_imported_call_edges(self):
        project = project_of(
            {
                "repro/util.py": "def helper():\n    return 1\n",
                "repro/top.py": """
                    from repro.util import helper

                    def local():
                        return 2

                    def caller():
                        return helper() + local()
                """,
            }
        )
        graph = build_call_graph(project)
        assert "repro.util.helper" in graph.edges["repro.top.caller"]
        assert "repro.top.local" in graph.edges["repro.top.caller"]

    def test_self_call_resolves_through_base_chain(self):
        project = project_of(
            {
                "repro/base.py": """
                    class Base:
                        def shared(self):
                            return 0
                """,
                "repro/child.py": """
                    from repro.base import Base

                    class Child(Base):
                        def go(self):
                            return self.shared()
                """,
            }
        )
        graph = build_call_graph(project)
        assert "repro.base.Base.shared" in graph.edges["repro.child.Child.go"]

    def test_reaches_is_transitive(self):
        project = project_of(
            {
                "repro/a.py": "def leaf():\n    return 1\n",
                "repro/b.py": "from repro.a import leaf\n\ndef mid():\n    return leaf()\n",
                "repro/c.py": "from repro.b import mid\n\ndef top():\n    return mid()\n",
            }
        )
        graph = build_call_graph(project)
        assert graph.reaches("repro.c.top", lambda fq: fq == "repro.a.leaf")
        assert not graph.reaches("repro.a.leaf", lambda fq: fq == "repro.c.top")

    def test_dead_code_report_is_conservative(self):
        project = project_of(
            {
                "repro/mod.py": """
                    def used():
                        return 1

                    def unused():
                        return 2

                    def dynamic():
                        return 3

                    def caller(obj):
                        getattr(obj, "dynamic")
                        return used()
                """
            }
        )
        graph = build_call_graph(project)
        dead = graph.dead_functions()
        assert "repro.mod.unused" in dead
        assert "repro.mod.used" not in dead
        # Referenced as a string literal: the getattr escape hatch is live.
        assert "repro.mod.dynamic" not in dead


# ----------------------------------------------------------------------
# FLOW001 — RNG provenance
# ----------------------------------------------------------------------
class TestRngProvenance:
    def test_bare_default_rng_in_hot_module_flagged(self):
        found = hits(
            {
                "repro/platform/sim.py": """
                    from numpy.random import default_rng

                    def draw():
                        rng = default_rng()
                        return rng.random()
                """
            },
            "FLOW001",
        )
        assert len(found) == 1
        assert "hot module repro.platform.sim" in found[0].message

    def test_bare_default_rng_reaching_hot_path_flagged(self):
        found = hits(
            {
                "repro/workers/model.py": "def decide(rng):\n    return rng.random()\n",
                "repro/experiments/cold.py": """
                    from numpy.random import default_rng
                    from repro.workers.model import decide

                    def kick():
                        return decide(default_rng())
                """,
            },
            "FLOW001",
        )
        assert len(found) == 1
        assert "call graph" in found[0].message

    def test_bare_default_rng_in_cold_code_not_flowed(self):
        # Never reaches the hot path: RNG003's per-file business, not FLOW001's.
        assert (
            hits(
                {
                    "repro/analysis/report.py": """
                        from numpy.random import default_rng

                        def jitter():
                            return default_rng().random()
                    """
                },
                "FLOW001",
            )
            == []
        )

    def test_seeded_default_rng_in_hot_module_clean(self):
        assert (
            hits(
                {
                    "repro/scheduler/engine.py": """
                        from numpy.random import default_rng

                        def make_stream(seed):
                            job_seed, platform_seed = seed.spawn(2)
                            return default_rng(job_seed)
                    """
                },
                "FLOW001",
            )
            == []
        )

    def test_generator_feeding_two_submissions_flagged(self):
        found = hits(
            {
                "repro/experiments/drive.py": """
                    from numpy.random import default_rng

                    def run(sched, a, b, seed):
                        rng = default_rng(seed)
                        sched.submit(a, rng)
                        sched.submit(b, rng)
                """
            },
            "FLOW001",
        )
        assert len(found) == 1
        assert found[0].line == 7
        assert "more than one job submission" in found[0].message

    def test_generator_created_outside_submit_loop_flagged(self):
        found = hits(
            {
                "repro/experiments/drive.py": """
                    from numpy.random import default_rng

                    def run(sched, jobs, seed):
                        rng = default_rng(seed)
                        for job in jobs:
                            sched.submit(job, rng)
                """
            },
            "FLOW001",
        )
        assert len(found) == 1
        assert "outside" in found[0].message

    def test_generator_created_per_iteration_clean(self):
        assert (
            hits(
                {
                    "repro/experiments/drive.py": """
                        from numpy.random import SeedSequence, default_rng

                        def run(sched, jobs, seed):
                            root = SeedSequence(seed)
                            for job in jobs:
                                rng = default_rng(root.spawn(1)[0])
                                sched.submit(job, rng)
                    """
                },
                "FLOW001",
            )
            == []
        )

    def test_suppression_silences_flow001(self):
        report = analyze(
            {
                "repro/experiments/drive.py": """
                    from numpy.random import default_rng

                    def run(sched, a, b, seed):
                        rng = default_rng(seed)
                        sched.submit(a, rng)
                        sched.submit(b, rng)  # repro-lint: disable=FLOW001 -- shared stream
                """
            }
        ).report
        assert report.violations == []


# ----------------------------------------------------------------------
# FLOW002 — telemetry name closure
# ----------------------------------------------------------------------
_NAMES_FIXTURE = """
    EVENT_KINDS = frozenset({"tick", "ghost_event"})
    SPAN_NAMES = frozenset({"run"})
    COUNTER_NAMES = frozenset({"hits"})
    TIMER_NAMES = frozenset(f"{name}.duration" for name in SPAN_NAMES)
"""


class TestTelemetryClosure:
    def test_undeclared_emission_flagged_at_site(self):
        found = hits(
            {
                "repro/telemetry/names.py": _NAMES_FIXTURE,
                "repro/engine.py": """
                    def go(tracer):
                        tracer.event("tick")
                        tracer.event("ghost_event")
                        tracer.event("not_declared")
                        with tracer.span("run"):
                            tracer.count("hits")
                """,
            },
            "FLOW002",
        )
        assert len(found) == 1
        assert found[0].path == "repro/engine.py"
        assert "'not_declared'" in found[0].message

    def test_dead_declared_name_flagged_at_declaration(self):
        found = hits(
            {
                "repro/telemetry/names.py": _NAMES_FIXTURE,
                "repro/engine.py": """
                    def go(tracer):
                        tracer.event("tick")
                        with tracer.span("run"):
                            tracer.count("hits")
                """,
            },
            "FLOW002",
        )
        assert len(found) == 1
        assert found[0].path == "repro/telemetry/names.py"
        assert "'ghost_event'" in found[0].message

    def test_literal_reference_elsewhere_counts_as_live(self):
        # A dispatch table or replay path references the name as a plain
        # string; the dead-name direction must treat that as live.
        assert (
            hits(
                {
                    "repro/telemetry/names.py": _NAMES_FIXTURE,
                    "repro/engine.py": """
                        REPLAYED = ("tick", "ghost_event")

                        def go(tracer):
                            tracer.event("tick")
                            with tracer.span("run"):
                                tracer.count("hits")
                    """,
                },
                "FLOW002",
            )
            == []
        )

    def test_timer_accepts_derived_span_duration(self):
        assert (
            hits(
                {
                    "repro/telemetry/names.py": _NAMES_FIXTURE,
                    "repro/engine.py": """
                        def go(tracer):
                            tracer.event("tick")
                            tracer.event("ghost_event")
                            with tracer.span("run"):
                                tracer.count("hits")
                            tracer.timer("run.duration")
                    """,
                },
                "FLOW002",
            )
            == []
        )

    def test_non_telemetry_receiver_not_confused(self):
        # ``str.count`` is not a metric emission.
        assert (
            hits(
                {
                    "repro/telemetry/names.py": _NAMES_FIXTURE,
                    "repro/engine.py": """
                        REPLAYED = ("tick", "ghost_event", "run", "hits")

                        def go(text):
                            return text.count("undeclared thing")
                    """,
                },
                "FLOW002",
            )
            == []
        )

    def test_projects_without_names_module_skip_rule(self):
        assert rule_ids({"repro/engine.py": "def go(tracer):\n    tracer.event('x')\n"}) == []

    def test_suppression_silences_flow002(self):
        report = analyze(
            {
                "repro/telemetry/names.py": _NAMES_FIXTURE,
                "repro/engine.py": """
                    def go(tracer):
                        tracer.event("tick")
                        tracer.event("ghost_event")
                        with tracer.span("run"):
                            tracer.count("hits")
                        tracer.event("wip_event")  # repro-lint: disable=FLOW002 -- staged rollout
                """,
            }
        ).report
        assert report.violations == []


# ----------------------------------------------------------------------
# FLOW003 — journal-before-store ordering
# ----------------------------------------------------------------------
class TestEffectOrdering:
    def test_store_before_journal_flagged(self):
        found = hits(
            {
                "repro/scheduler/engine.py": """
                    def settle(self, journal, cache, batch):
                        cache.store_batch(batch)
                        journal.append(batch)
                """
            },
            "FLOW003",
        )
        assert len(found) == 1
        assert found[0].line == 3

    def test_store_with_no_journal_flagged(self):
        found = hits(
            {
                "repro/durability/cachewriter.py": """
                    def persist(store, entries):
                        store.write_entries(entries)
                """
            },
            "FLOW003",
        )
        assert len(found) == 1

    def test_journal_then_store_clean(self):
        assert (
            hits(
                {
                    "repro/scheduler/engine.py": """
                        def settle(self, cache, batch):
                            self._journal.append(batch)
                            cache.store_batch(batch)

                        def tick(self, cache):
                            self._journal.commit_group()
                            cache.flush_pending()
                    """
                },
                "FLOW003",
            )
            == []
        )

    def test_journal_helper_then_store_clean(self):
        assert (
            hits(
                {
                    "repro/scheduler/engine.py": """
                        def record(self, cache, lookup):
                            self._journal_serve(lookup)
                            cache.store_batch(lookup)

                        def tick(self, cache):
                            self._journal_tick(self.ticks)
                            cache.flush_pending()
                    """
                },
                "FLOW003",
            )
            == []
        )

    def test_opening_a_group_is_not_a_journal_call(self):
        """Only an append or a commit orders the store behind the
        journal; a call that merely opens a group does not."""
        found = hits(
            {
                "repro/scheduler/engine.py": """
                    def tick(self, cache, batch):
                        self._journal.begin_group()
                        cache.store_batch(batch)
                """
            },
            "FLOW003",
        )
        assert len(found) == 1

    def test_list_append_is_not_a_journal_call(self):
        found = hits(
            {
                "repro/scheduler/engine.py": """
                    def settle(self, cache, batch, pending):
                        pending.append(batch)
                        cache.store_batch(batch)
                """
            },
            "FLOW003",
        )
        assert len(found) == 1

    def test_journal_error_constructor_is_not_an_append(self):
        found = hits(
            {
                "repro/scheduler/engine.py": """
                    from repro.durability import JournalMismatchError

                    def replay(self, cache, batch, recorded, actual):
                        if recorded != actual:
                            raise JournalMismatchError(recorded, actual)
                        cache.store_batch(batch)
                """
            },
            "FLOW003",
        )
        assert len(found) == 1

    def test_out_of_scope_module_not_checked(self):
        assert (
            hits(
                {
                    "repro/analysis/export.py": """
                        def persist(store, entries):
                            store.write_entries(entries)
                    """
                },
                "FLOW003",
            )
            == []
        )

    def test_suppression_silences_flow003(self):
        report = analyze(
            {
                "repro/scheduler/engine.py": """
                    def replay(self, cache, batch):
                        cache.store_batch(batch)  # repro-lint: disable=FLOW003 -- replay fixture
                """
            }
        ).report
        assert report.violations == []

    def test_unused_flow_suppression_is_lint001(self):
        report = analyze(
            {
                "repro/scheduler/engine.py": """
                    def settle(self, cache, batch):
                        self._journal.append(batch)
                        cache.store_batch(batch)  # repro-lint: disable=FLOW003 -- not needed
                """
            }
        ).report
        assert [v.rule_id for v in report.violations] == ["LINT001"]


# ----------------------------------------------------------------------
# FLOW004 — API surface integrity
# ----------------------------------------------------------------------
class TestApiSurface:
    CORE = "def find_max(xs):\n    return max(xs)\n\ndef helper(xs):\n    return xs\n"

    def test_unexported_public_symbol_flagged(self):
        found = hits(
            {
                "repro/core.py": self.CORE,
                "repro/api.py": """
                    from .core import find_max
                    from .core import helper

                    __all__ = ["find_max"]
                """,
            },
            "FLOW004",
        )
        assert len(found) == 1
        assert "'helper'" in found[0].message
        assert "missing from __all__" in found[0].message

    def test_export_without_binding_flagged(self):
        found = hits(
            {
                "repro/core.py": self.CORE,
                "repro/api.py": """
                    from .core import find_max

                    __all__ = ["find_max", "ghost"]
                """,
            },
            "FLOW004",
        )
        assert len(found) == 1
        assert "'ghost'" in found[0].message

    def test_deprecated_shim_leak_flagged(self):
        found = hits(
            {
                "repro/service.py": "class ResilientCrowdMaxJob:\n    pass\n",
                "repro/api.py": """
                    from .service import ResilientCrowdMaxJob

                    __all__ = ["ResilientCrowdMaxJob"]
                """,
            },
            "FLOW004",
        )
        assert any("deprecated shim" in v.message for v in found)

    def test_unresolvable_reexport_flagged(self):
        found = hits(
            {
                "repro/core.py": self.CORE,
                "repro/api.py": """
                    from .core import missing_thing

                    __all__ = ["missing_thing"]
                """,
            },
            "FLOW004",
        )
        assert any("does not define" in v.message for v in found)

    def test_clean_facade_passes(self):
        assert (
            hits(
                {
                    "repro/core.py": self.CORE,
                    "repro/api.py": """
                        from __future__ import annotations

                        from .core import find_max
                        from .core import helper

                        __all__ = ["find_max", "helper"]
                    """,
                },
                "FLOW004",
            )
            == []
        )

    def test_missing_all_flagged(self):
        found = hits(
            {
                "repro/core.py": self.CORE,
                "repro/api.py": "from .core import find_max\n",
            },
            "FLOW004",
        )
        assert len(found) == 1
        assert "__all__" in found[0].message

    def test_projects_without_facade_skip_rule(self):
        assert hits({"repro/core.py": self.CORE}, "FLOW004") == []


# ----------------------------------------------------------------------
# FLOW004 — wire error registry bijection
# ----------------------------------------------------------------------
class TestWireRegistry:
    """The ``repro.service_http.errors`` audit riding on FLOW004.

    Each fixture builds a tiny facade + registry pair and perturbs one
    invariant: codes↔types must be a bijection, every type must resolve
    and be exported from the facade, every ``*Error`` class defined in
    the registry must be mapped, and ``WIRE_STATUS`` must cover exactly
    the registered codes.
    """

    REGISTRY = """
        class AlphaError(Exception):
            pass

        class BetaError(Exception):
            pass

        WIRE_ERRORS = {"alpha": AlphaError, "beta": BetaError}
        WIRE_STATUS = {"alpha": 400, "beta": 409}
    """

    FACADE = """
        from .service_http.errors import AlphaError
        from .service_http.errors import BetaError

        __all__ = ["AlphaError", "BetaError"]
    """

    def project(self, registry=None, facade=None):
        return {
            "repro/service_http/errors.py": registry or self.REGISTRY,
            "repro/api.py": facade or self.FACADE,
        }

    def test_clean_registry_passes(self):
        assert hits(self.project(), "FLOW004") == []

    def test_registry_module_absent_skips_the_audit(self):
        assert (
            hits({"repro/api.py": "__all__ = []\n"}, "FLOW004") == []
        )

    def test_registry_must_be_a_dict_literal(self):
        registry = """
            class AlphaError(Exception):
                pass

            WIRE_ERRORS = dict(alpha=AlphaError)
            WIRE_STATUS = {"alpha": 400}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any("top-level dict literal" in v.message for v in found)

    def test_duplicate_code_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            class BetaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError, "alpha": BetaError}
            WIRE_STATUS = {"alpha": 400}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any("registered twice" in v.message for v in found)

    def test_one_type_under_two_codes_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError, "beta": AlphaError}
            WIRE_STATUS = {"alpha": 400, "beta": 409}
        """
        facade = """
            from .service_http.errors import AlphaError

            __all__ = ["AlphaError"]
        """
        found = hits(self.project(registry=registry, facade=facade), "FLOW004")
        assert any("one type, one code" in v.message for v in found)

    def test_non_string_key_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            WIRE_ERRORS = {400: AlphaError}
            WIRE_STATUS = {}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any("string literals" in v.message for v in found)

    def test_non_name_value_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError()}
            WIRE_STATUS = {"alpha": 400}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any("plain exception-class" in v.message for v in found)

    def test_unresolvable_type_flagged(self):
        registry = """
            WIRE_ERRORS = {"ghost": GhostError}
            WIRE_STATUS = {"ghost": 500}
        """
        facade = """
            __all__ = []
        """
        found = hits(self.project(registry=registry, facade=facade), "FLOW004")
        assert any("neither defines nor imports" in v.message for v in found)

    def test_type_missing_from_facade_flagged(self):
        facade = """
            from .service_http.errors import AlphaError

            __all__ = ["AlphaError"]
        """
        found = hits(self.project(facade=facade), "FLOW004")
        assert any(
            "facade does not export" in v.message and "'BetaError'" in v.message
            for v in found
        )

    def test_unmapped_error_class_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            class OrphanError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError}
            WIRE_STATUS = {"alpha": 400}
        """
        facade = """
            from .service_http.errors import AlphaError

            __all__ = ["AlphaError"]
        """
        found = hits(self.project(registry=registry, facade=facade), "FLOW004")
        assert any(
            "missing from WIRE_ERRORS" in v.message and "'OrphanError'" in v.message
            for v in found
        )

    def test_code_without_status_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            class BetaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError, "beta": BetaError}
            WIRE_STATUS = {"alpha": 400}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any(
            "no HTTP status" in v.message and "'beta'" in v.message for v in found
        )

    def test_status_for_unregistered_code_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            class BetaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError, "beta": BetaError}
            WIRE_STATUS = {"alpha": 400, "beta": 409, "gamma": 500}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any(
            "not a registered wire code" in v.message and "'gamma'" in v.message
            for v in found
        )

    def test_missing_wire_status_flagged(self):
        registry = """
            class AlphaError(Exception):
                pass

            class BetaError(Exception):
                pass

            WIRE_ERRORS = {"alpha": AlphaError, "beta": BetaError}
        """
        found = hits(self.project(registry=registry), "FLOW004")
        assert any("WIRE_STATUS must be" in v.message for v in found)


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
class TestAnalysisEngine:
    def test_select_subset_runs_only_those_rules(self):
        project = project_of(
            {
                "repro/scheduler/engine.py": textwrap.dedent(
                    """
                    def settle(self, cache, batch):
                        cache.store_batch(batch)
                    """
                )
            }
        )
        from repro.devtools.analyze.framework import FLOW_REGISTRY

        rules = FLOW_REGISTRY.select(select=["FLOW001"])
        result = AnalysisEngine(rules=rules).analyze_project(project)
        assert result.report.violations == []

    def test_suppression_counts_cover_all_stages(self):
        result = analyze(
            {
                "repro/mod.py": """
                    import time

                    def stamp():
                        return time.time()  # repro-lint: disable=DET002 -- fixture
                """
            }
        )
        assert result.suppression_counts == {"DET002": 1}

    def test_flow_ids_registered_as_known_for_lint(self):
        assert set(FLOW_IDS) <= EXTERNAL_KNOWN_IDS

    def test_graph_payload_shape(self):
        result = analyze({"repro/mod.py": "def f():\n    return 1\n"})
        payload = build_graph_payload(result)
        assert payload["schema"] == ANALYSIS_GRAPH_SCHEMA
        assert payload["ok"] is True
        assert payload["modules"] == ["repro.mod"]
        assert isinstance(payload["call_graph"]["edges"], list)
        assert "dead_code" in payload
        assert "suppressions" in payload


# ----------------------------------------------------------------------
# Self-application and CLI surface
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repository_analyzes_clean(self, capsys):
        """The gate CI enforces: every FLOW rule active, zero findings."""
        exit_code = main([str(SRC)])
        out = capsys.readouterr().out
        assert exit_code == 0, f"repro-analyze found violations:\n{out}"
        assert "files clean" in out

    def test_run_analysis_builds_nontrivial_graph(self):
        result = run_analysis([str(SRC)])
        assert result.report.ok
        assert len(result.project.modules) > 100
        assert len(result.graph.edge_list()) > 500
        assert "repro.telemetry.names" in result.project.modules
        assert "repro.api" in result.project.modules

    def test_module_invocation_with_artifact(self, tmp_path):
        """The CI invocation: analyze src, write the artifact atomically."""
        artifact = tmp_path / "results" / "ANALYSIS_graph.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.analyze.cli",
                str(SRC),
                "--artifact",
                str(artifact),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == ANALYSIS_GRAPH_SCHEMA
        assert payload["ok"] is True
        assert payload["findings"] == []
        # Atomic writer leaves no temp droppings next to the artifact.
        assert [p.name for p in artifact.parent.iterdir()] == [artifact.name]


class TestCliSurface:
    def test_list_rules_shows_ids_and_suppressibility(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in FLOW_IDS:
            assert rule_id in out
        assert "[suppressible]" in out
        assert "LINT001" in out and "[not suppressible]" in out

    def test_json_format(self, capsys):
        exit_code = main([str(SRC), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["ok"] is True

    def test_unknown_rule_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(SRC), "--select", "FLOW999"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/dir"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "scheduler"
        bad.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (bad / "__init__.py").write_text("")
        (bad / "engine.py").write_text(
            "def settle(cache, batch):\n    cache.store_batch(batch)\n"
        )
        exit_code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "FLOW003" in out

    def test_parser_prog_name(self):
        assert build_parser().prog == "repro-analyze"
