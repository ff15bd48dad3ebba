"""Per-rule fixtures for the ``repro-lint`` rule pack.

Every rule gets (at least) a positive snippet, a negative snippet, and
a suppressed snippet.  Fixtures are in-memory strings run through
:meth:`SourceFile.from_text`, so suppression comments inside them are
real suppressions while this *file's own* source never confuses the
linter (fixture text lives inside string literals, which the
tokenize-based suppression parser ignores).
"""

import textwrap

from repro.devtools import default_rules
from repro.devtools.lint.framework import LintEngine, SourceFile


def lint(code, context="src", path="<string>"):
    engine = LintEngine(rules=default_rules())
    source = SourceFile.from_text(
        textwrap.dedent(code), context=context, path=path
    )
    return engine.lint_source(source)


def rule_ids(code, context="src", path="<string>"):
    return sorted({v.rule_id for v in lint(code, context=context, path=path)})


class TestRNG001NumpyGlobalState:
    def test_global_state_call_flagged(self):
        assert rule_ids("import numpy as np\nx = np.random.rand(3)\n") == ["RNG001"]

    def test_seed_call_flagged(self):
        assert rule_ids("import numpy as np\nnp.random.seed(0)\n") == ["RNG001"]

    def test_import_of_legacy_function_flagged(self):
        assert rule_ids("from numpy.random import randint\n") == ["RNG001"]

    def test_generator_api_allowed(self):
        assert rule_ids(
            """\
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
            """
        ) == []

    def test_flagged_in_tests_too(self):
        assert rule_ids("import numpy as np\nnp.random.rand()\n", context="tests") == [
            "RNG001"
        ]

    def test_suppressed(self):
        assert (
            lint(
                "import numpy as np\n"
                "x = np.random.rand(3)"
                "  # repro-lint: disable=RNG001 -- legacy-API demo\n"
            )
            == []
        )


class TestRNG002StdlibRandom:
    def test_import_flagged_in_src(self):
        assert rule_ids("import random\n") == ["RNG002"]

    def test_from_import_flagged_in_src(self):
        assert rule_ids("from random import shuffle\n") == ["RNG002"]

    def test_allowed_in_tests(self):
        assert rule_ids("import random\n", context="tests") == []

    def test_unrelated_module_not_flagged(self):
        assert rule_ids("import randomness_lib\n") == []

    def test_suppressed(self):
        assert (
            lint("import random  # repro-lint: disable=RNG002 -- baseline comparison\n")
            == []
        )


class TestRNG003UnseededDefaultRng:
    def test_argless_flagged_in_src(self):
        assert rule_ids(
            "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
        ) == ["RNG003"]

    def test_threaded_seed_allowed(self):
        assert rule_ids(
            "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n"
        ) == []

    def test_allowed_in_tests(self):
        assert rule_ids(
            "import numpy as np\nrng = np.random.default_rng()\n", context="tests"
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "import numpy as np\n"
                "rng = np.random.default_rng()"
                "  # repro-lint: disable=RNG003 -- entropy wanted here\n"
            )
            == []
        )


class TestRNG004LiteralSeed:
    def test_literal_seed_flagged_in_src(self):
        assert rule_ids(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        ) == ["RNG004"]

    def test_literal_seed_sequence_flagged(self):
        assert rule_ids(
            "import numpy as np\nss = np.random.SeedSequence(7)\n"
        ) == ["RNG004"]

    def test_named_constant_allowed(self):
        assert rule_ids(
            """\
            import numpy as np

            CATALOG_SEED = 2013

            def catalog():
                return np.random.default_rng(CATALOG_SEED)
            """
        ) == []

    def test_allowed_in_tests(self):
        assert rule_ids(
            "import numpy as np\nrng = np.random.default_rng(42)\n", context="tests"
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "import numpy as np\n"
                "rng = np.random.default_rng(42)"
                "  # repro-lint: disable=RNG004 -- doc example\n"
            )
            == []
        )


class TestDET001SetIteration:
    def test_for_over_set_literal_flagged(self):
        assert rule_ids("for x in {1, 2, 3}:\n    print(x)\n") == ["DET001"]

    def test_comprehension_over_set_call_flagged(self):
        assert rule_ids("ys = [y for y in set(items)]\n") == ["DET001"]

    def test_list_of_set_flagged(self):
        assert rule_ids("order = list({1, 2})\n") == ["DET001"]

    def test_sorted_set_allowed(self):
        assert rule_ids("for x in sorted({1, 2, 3}):\n    print(x)\n") == []

    def test_plain_iteration_allowed(self):
        assert rule_ids("for x in items:\n    print(x)\n") == []

    def test_suppressed(self):
        assert (
            lint(
                "order = list({1, 2})"
                "  # repro-lint: disable=DET001 -- order irrelevant, summed\n"
            )
            == []
        )


class TestDET002WallClock:
    def test_time_time_flagged_in_src(self):
        assert rule_ids("import time\nstamp = time.time()\n") == ["DET002"]

    def test_datetime_now_flagged_in_src(self):
        assert rule_ids(
            "import datetime\nwhen = datetime.datetime.now()\n"
        ) == ["DET002"]

    def test_perf_counter_allowed(self):
        assert rule_ids("import time\nt0 = time.perf_counter()\n") == []

    def test_allowed_in_tests(self):
        assert rule_ids("import time\nstamp = time.time()\n", context="tests") == []

    def test_telemetry_layer_exempt(self):
        assert rule_ids(
            "import time\nstamp = time.time()\n",
            path="src/repro/telemetry/sink.py",
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "import time\n"
                "stamp = time.time()"
                "  # repro-lint: disable=DET002 -- provenance stamp only\n"
            )
            == []
        )


class TestFRK001GlobalStatement:
    def test_global_flagged_in_src(self):
        assert rule_ids(
            """\
            counter = 0

            def bump():
                global counter
                counter += 1
            """
        ) == ["FRK001"]

    def test_allowed_in_tests(self):
        assert rule_ids(
            "def bump():\n    global counter\n    counter = 1\n", context="tests"
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                """\
                _active = None

                def set_active(value):
                    global _active  # repro-lint: disable=FRK001 -- sanctioned ambient
                    _active = value
                """
            )
            == []
        )


class TestFRK002ModuleStateMutation:
    def test_module_dict_mutation_flagged(self):
        assert rule_ids(
            """\
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
            """
        ) == ["FRK002"]

    def test_module_list_append_flagged(self):
        assert rule_ids(
            """\
            RESULTS = []

            def record(item):
                RESULTS.append(item)
            """
        ) == ["FRK002"]

    def test_local_shadow_allowed(self):
        assert rule_ids(
            """\
            RESULTS = []

            def record(item, RESULTS):
                RESULTS.append(item)
            """
        ) == []

    def test_local_container_allowed(self):
        assert rule_ids(
            """\
            def collect(items):
                out = []
                for item in items:
                    out.append(item)
                return out
            """
        ) == []

    def test_allowed_in_tests(self):
        assert rule_ids(
            "SEEN = []\n\ndef record(x):\n    SEEN.append(x)\n", context="tests"
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                """\
                _CACHE = {}

                def remember(key, value):
                    _CACHE[key] = value  # repro-lint: disable=FRK002 -- process-local memo
                """
            )
            == []
        )


class TestTEL001SpanContextManager:
    def test_bare_span_call_flagged(self):
        assert rule_ids('tracer.span("maxfind")\n') == ["TEL001"]

    def test_with_span_allowed(self):
        assert rule_ids('with tracer.span("maxfind"):\n    pass\n') == []

    def test_assigned_span_flagged(self):
        # Storing the manager without entering it still loses span_end
        # on any non-`with` path; the rule only blesses direct `with`.
        assert rule_ids('cm = tracer.span("maxfind")\n') == ["TEL001"]

    def test_flagged_in_tests_too(self):
        assert rule_ids('tracer.span("maxfind")\n', context="tests") == ["TEL001"]

    def test_suppressed(self):
        assert (
            lint(
                'cm = tracer.span("maxfind")'
                "  # repro-lint: disable=TEL001 -- manually __enter__ed below\n"
            )
            == []
        )


class TestTEL002DeclaredNames:
    def test_undeclared_event_flagged_in_src(self):
        assert rule_ids('tracer.event("made_up_kind")\n') == ["TEL002"]

    def test_declared_event_allowed(self):
        assert rule_ids('tracer.event("oracle_batch")\n') == []

    def test_declared_span_allowed(self):
        assert rule_ids('with tracer.span("maxfind"):\n    pass\n') == []

    def test_undeclared_counter_flagged(self):
        assert rule_ids('metrics.count("made.up.counter", 1)\n') == ["TEL002"]

    def test_str_count_not_confused_with_counter(self):
        # `count` is only checked on telemetry-looking receivers.
        assert rule_ids('n = text.count("x")\n') == []

    def test_dynamic_name_skipped(self):
        assert rule_ids("tracer.event(kind)\n") == []

    def test_allowed_in_tests(self):
        assert rule_ids('tracer.event("made_up_kind")\n', context="tests") == []

    def test_suppressed(self):
        assert (
            lint(
                'tracer.event("made_up_kind")'
                "  # repro-lint: disable=TEL002 -- migration shim\n"
            )
            == []
        )


class TestERR001BareExcept:
    def test_bare_except_flagged(self):
        violations = lint(
            "try:\n    f()\nexcept:\n    handle()\n", context="tests"
        )
        assert "ERR001" in {v.rule_id for v in violations}

    def test_typed_except_allowed(self):
        assert rule_ids(
            "try:\n    f()\nexcept ValueError:\n    handle()\n", context="tests"
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "try:\n"
                "    f()\n"
                "except:  # repro-lint: disable=ERR001,ERR002 -- fixture for the docs\n"
                "    pass\n",
                context="tests",
            )
            == []
        )


class TestERR002SwallowedException:
    def test_except_exception_pass_flagged(self):
        violations = lint(
            "try:\n    f()\nexcept Exception:\n    pass\n", context="tests"
        )
        assert "ERR002" in {v.rule_id for v in violations}

    def test_handler_that_records_allowed(self):
        assert rule_ids(
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
            context="tests",
        ) == []

    def test_narrow_except_pass_allowed(self):
        assert rule_ids(
            "try:\n    f()\nexcept KeyError:\n    pass\n", context="tests"
        ) == []


class TestERR003BroadExceptNoReraise:
    def test_broad_no_reraise_flagged_in_src(self):
        assert rule_ids(
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n"
        ) == ["ERR003"]

    def test_broad_with_reraise_allowed(self):
        assert rule_ids(
            "try:\n"
            "    f()\n"
            "except Exception:\n"
            "    cleanup()\n"
            "    raise\n"
        ) == []

    def test_allowed_in_tests(self):
        assert rule_ids(
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
            context="tests",
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "try:\n"
                "    f()\n"
                "except Exception as exc:"
                "  # repro-lint: disable=ERR003 -- crash isolation boundary\n"
                "    log(exc)\n"
            )
            == []
        )


class TestAPI001StableApiSurface:
    def test_deprecated_import_flagged_in_src(self):
        assert rule_ids("from repro.service import ResilientCrowdMaxJob\n") == [
            "API001"
        ]

    def test_relative_deprecated_import_flagged(self):
        assert rule_ids("from .service import ResilientCrowdMaxJob\n") == ["API001"]

    def test_package_reexport_import_flagged(self):
        assert rule_ids("from repro import ResilientCrowdMaxJob\n") == ["API001"]

    def test_current_names_allowed_in_src(self):
        assert rule_ids(
            "from repro.service import CrowdMaxJob, ResiliencePolicy\n"
        ) == []

    def test_internal_modules_allowed_in_src(self):
        assert rule_ids("from repro.scheduler.engine import CrowdScheduler\n") == []

    def test_deprecated_allowed_in_tests(self):
        assert rule_ids(
            "from repro.service import ResilientCrowdMaxJob\n", context="tests"
        ) == []

    def test_internal_from_import_flagged_in_examples(self):
        assert rule_ids(
            "from repro.service import CrowdMaxJob\n", context="examples"
        ) == ["API001"]

    def test_internal_module_import_flagged_in_examples(self):
        assert rule_ids("import repro.platform\n", context="examples") == ["API001"]

    def test_package_import_flagged_in_examples(self):
        assert rule_ids("from repro import find_max\n", context="examples") == [
            "API001"
        ]

    def test_facade_allowed_in_examples(self):
        assert rule_ids(
            "from repro.api import CrowdScheduler, find_max\n", context="examples"
        ) == []

    def test_third_party_allowed_in_examples(self):
        assert rule_ids("import numpy as np\n", context="examples") == []

    def test_literal_seed_allowed_in_examples(self):
        # Only the API rules run in the examples context; RNG/DET/... do not.
        assert rule_ids(
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            context="examples",
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "from repro.service import ResilientCrowdMaxJob"
                "  # repro-lint: disable=API001 -- the shim's own round-trip test\n"
            )
            == []
        )


class TestVEC001ScalarComparisonInLoop:
    def test_scalar_compare_in_for_loop_flagged(self):
        assert rule_ids(
            "for i, j in pairs:\n    winners.append(oracle.compare(i, j))\n"
        ) == ["VEC001"]

    def test_decide_single_in_while_loop_flagged(self):
        assert rule_ids(
            "while queue:\n"
            "    i, j = queue.pop()\n"
            "    out = model.decide_single(i, j, rng)\n"
        ) == ["VEC001"]

    def test_scalar_call_in_comprehension_flagged(self):
        assert rule_ids(
            "winners = [oracle.compare(i, j) for i, j in pairs]\n"
        ) == ["VEC001"]

    def test_batched_call_in_loop_allowed(self):
        assert rule_ids(
            "for chunk in chunks:\n"
            "    winners = oracle.compare_pairs(chunk.ii, chunk.jj)\n"
        ) == []

    def test_scalar_call_outside_loop_allowed(self):
        assert rule_ids("winner = oracle.compare(0, 1)\n") == []

    def test_allowed_in_tests(self):
        assert rule_ids(
            "for i, j in pairs:\n    winners.append(oracle.compare(i, j))\n",
            context="tests",
        ) == []

    def test_suppressed(self):
        assert (
            lint(
                "for i, j in pairs:\n"
                "    w = oracle.compare(i, j)"
                "  # repro-lint: disable=VEC001 -- sequential base case\n"
            )
            == []
        )


class TestDUR001BareWrite:
    def test_open_write_flagged_in_src(self):
        assert rule_ids('with open(p, "w") as fh:\n    fh.write(s)\n') == ["DUR001"]

    def test_open_append_flagged_in_src(self):
        assert rule_ids('fh = open(p, "a")\n') == ["DUR001"]

    def test_open_mode_keyword_flagged(self):
        assert rule_ids('fh = open(p, mode="wb")\n') == ["DUR001"]

    def test_path_open_write_flagged(self):
        assert rule_ids('with path.open("w") as fh:\n    fh.write(s)\n') == ["DUR001"]

    def test_write_text_flagged(self):
        assert rule_ids("path.write_text(body)\n") == ["DUR001"]

    def test_read_modes_allowed(self):
        assert rule_ids(
            """\
            with open(p) as fh:
                a = fh.read()
            with open(p, "rb") as fh:
                b = fh.read()
            with path.open("r") as fh:
                c = fh.read()
            d = path.read_text()
            """
        ) == []

    def test_dynamic_mode_not_flagged(self):
        # A non-literal mode cannot be judged statically; stay silent.
        assert rule_ids("fh = open(p, mode)\n") == []

    def test_allowed_in_tests(self):
        assert rule_ids('open(p, "w").write(s)\n', context="tests") == []

    def test_suppressed(self):
        assert (
            lint(
                'with open(p, "wb") as fh:'
                "  # repro-lint: disable=DUR001 -- atomic tmp body\n"
                "    fh.write(raw)\n"
            )
            == []
        )


class TestSCH001DirectPlatformBatch:
    SCHED_PATH = "src/repro/scheduler/engine.py"

    def test_compare_batch_flagged_in_scheduler(self):
        assert rule_ids(
            "answers, report = platform.compare_batch(pool, vi, vj)\n",
            path=self.SCHED_PATH,
        ) == ["SCH001"]

    def test_submit_batch_flagged_in_scheduler(self):
        assert rule_ids(
            "pool.submit_batch(tasks)\n", path=self.SCHED_PATH
        ) == ["SCH001"]

    def test_fast_batch_primitives_allowed(self):
        assert rule_ids(
            """\
            plan = platform.fast_batch_prepare(pool, ii, jj, vi, vj, req)
            raw = platform.fast_batch_decide(pool, plan)
            fresh, report = platform.fast_batch_finalize(pool, plan, raw)
            """,
            path=self.SCHED_PATH,
        ) == []

    def test_outside_scheduler_allowed(self):
        assert rule_ids(
            "answers, report = platform.compare_batch(pool, vi, vj)\n",
            path="src/repro/service.py",
        ) == []

    def test_not_applied_in_tests(self):
        assert rule_ids(
            "platform.compare_batch(pool, vi, vj)\n",
            context="tests",
            path="tests/repro/scheduler/test_engine.py",
        ) == []

    def test_suppressed_escape_hatch(self):
        assert (
            lint(
                "fresh, report = CrowdPlatform.compare_batch("
                "  # repro-lint: disable=SCH001 -- the lone buy for fast-path-ineligible requests\n"
                "    self, pool_name, vi, vj\n"
                ")\n",
                path=self.SCHED_PATH,
            )
            == []
        )


class TestRulePackShape:
    def test_all_expected_rules_registered(self):
        ids = {cls.rule_id for cls in default_rules()}
        assert ids == {
            "API001",
            "RNG001",
            "RNG002",
            "RNG003",
            "RNG004",
            "DET001",
            "DET002",
            "DUR001",
            "FRK001",
            "FRK002",
            "TEL001",
            "TEL002",
            "ERR001",
            "ERR002",
            "ERR003",
            "VEC001",
            "SCH001",
        }

    def test_every_rule_documents_itself(self):
        for cls in default_rules():
            assert cls.summary, cls.rule_id
            assert cls.rationale, cls.rule_id
            assert cls.contexts <= {"src", "tests", "examples"}, cls.rule_id
