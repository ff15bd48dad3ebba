"""Tests for the stable ``repro.api`` facade.

The compatibility story under test: ``repro.api`` re-exports every
supported name unchanged (same objects, not copies), and the
deprecated ``ResilientCrowdMaxJob`` and the ``repro.service`` alias of
``repro.jobs`` finished their cycles and are *gone*.  The runtime
behind the facade loads numpy and the standard library only: scipy
comes in when one of its analytics first runs, never at import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api
import repro.jobs
from repro.core.generators import planted_instance
from repro.jobs import CrowdMaxJob, JobPhaseConfig, ResiliencePolicy
from repro.platform.platform import CrowdPlatform
from repro.platform.workforce import WorkerPool
from repro.workers.threshold import ThresholdWorkerModel


class TestFacadeSurface:
    def test_every_name_is_the_home_module_object(self):
        """repro.api aliases, never wraps: identity with the home module."""
        home_modules = [
            "repro.core",
            "repro.datasets",
            "repro.durability",
            "repro.experiments",
            "repro.jobs",
            "repro.parallel",
            "repro.platform",
            "repro.scheduler",
            "repro.service_http",
            "repro.telemetry",
            "repro.workers",
        ]
        homes = [importlib.import_module(m) for m in home_modules]
        for name in repro.api.__all__:
            obj = getattr(repro.api, name)
            assert any(
                getattr(home, name, None) is obj for home in homes
            ), f"repro.api.{name} is not a plain re-export"

    def test_all_is_sorted_within_sections(self):
        # __all__ resolves (the dedicated meta-test covers docs etc.)
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)
        assert len(set(repro.api.__all__)) == len(repro.api.__all__)

    def test_deprecated_name_is_not_on_the_facade(self):
        assert "ResilientCrowdMaxJob" not in repro.api.__all__
        assert not hasattr(repro.api, "ResilientCrowdMaxJob")


class TestShimRemoval:
    """``ResilientCrowdMaxJob`` completed its deprecation cycle."""

    def test_gone_from_every_import_path(self):
        assert not hasattr(repro, "ResilientCrowdMaxJob")
        assert "ResilientCrowdMaxJob" not in repro.__all__
        assert not hasattr(repro.jobs, "ResilientCrowdMaxJob")

    def test_replacement_is_exported_everywhere(self):
        assert repro.api.ResiliencePolicy is ResiliencePolicy
        assert repro.ResiliencePolicy is ResiliencePolicy


class TestServiceAliasRemoval:
    """The ``repro.service`` alias of ``repro.jobs`` is gone."""

    def test_alias_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.service")


def make_setup(seed=777):
    rng = np.random.default_rng(seed)
    instance = planted_instance(
        n=80, u_n=3, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng
    )
    pools = {
        "crowd": WorkerPool.homogeneous(
            "crowd", ThresholdWorkerModel(delta=1.0), size=12, cost_per_judgment=1.0
        ),
        "experts": WorkerPool.homogeneous(
            "experts",
            ThresholdWorkerModel(delta=0.25, is_expert=True),
            size=3,
            cost_per_judgment=20.0,
        ),
    }
    platform = CrowdPlatform(pools, rng=np.random.default_rng(seed + 1))
    return instance, platform


class TestResilienceOption:
    def test_plain_job_does_not_warn(self, recwarn):
        instance, _ = make_setup()
        CrowdMaxJob(
            instance,
            u_n=3,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
            resilience=ResiliencePolicy(),
        )
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_option_rejects_bad_redundancy(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(fallback_redundancy=0)

    def test_option_runs_end_to_end(self):
        instance, platform = make_setup()
        job = CrowdMaxJob(
            instance,
            u_n=3,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
            resilience=ResiliencePolicy(fallback_redundancy=5),
        )
        result = job.execute(platform, np.random.default_rng(42))
        assert 0 <= result.winner < len(instance.values)
        assert result.winner in result.survivors
        assert result.total_cost > 0


REPO = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: imports every entry point, serves two
# fused jobs through the scheduler with the cache on, runs one
# find_max, then reports which scipy modules are loaded.
RUNTIME_PROBE = """
import json
import sys

import numpy as np

import repro
import repro.api
import repro.cli
import repro.service_http.cli
from repro.api import (
    CrowdMaxJob,
    CrowdScheduler,
    JobPhaseConfig,
    ThresholdWorkerModel,
    WorkerPool,
    find_max,
    make_worker_classes,
    planted_instance,
)

rng = np.random.default_rng(7)
instance = planted_instance(n=80, u_n=3, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng)
pools = {
    "crowd": WorkerPool.homogeneous(
        "crowd", ThresholdWorkerModel(delta=1.0), size=12, cost_per_judgment=1.0
    ),
    "experts": WorkerPool.homogeneous(
        "experts",
        ThresholdWorkerModel(delta=0.25, is_expert=True),
        size=3,
        cost_per_judgment=20.0,
    ),
}
scheduler = CrowdScheduler(pools, root_seed=2015, cache=True)
for _ in range(2):
    scheduler.submit(
        CrowdMaxJob(
            instance,
            u_n=3,
            phase1=JobPhaseConfig(pool="crowd"),
            phase2=JobPhaseConfig(pool="experts"),
        )
    )
outcomes = scheduler.run()
naive, expert = make_worker_classes(delta_n=1.0, delta_e=0.25)
find_max(instance, naive, expert, u_n=3, rng=rng)
print(json.dumps({
    "statuses": [outcome.status for outcome in outcomes],
    "scipy": sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    ),
}))
"""


class TestScipyFreeRuntime:
    """``import repro`` and the serving path never load scipy.

    scipy backs only the majority-vote analytics, the psychometric
    worker models and the confidence intervals, which import it when
    they first run.  A module-level scipy import anywhere on the import
    path would cost every process (server, CLI, benchmark, SIGKILL
    harness child) far more start-up time and memory than the rest of
    the package (docs/PERFORMANCE.md, "Process footprint").
    """

    def test_entry_points_and_a_fused_run_load_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", RUNTIME_PROBE],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.splitlines()[-1])
        assert report["statuses"] == ["ok", "ok"]
        assert report["scipy"] == []
