"""Tests of the benchmark's own code (not of the program it measures).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import paper_sweep
import run
import shared_pools
import spans
import steady

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and the printed metrics
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS[:len(SPEC["workloads"])])


def test_metric_specs_match_benchmark_json():
    def table(metrics):
        return [(m.name, m.unit, m.better) for m in metrics]

    assert table(harness.END_TO_END) == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]
    ]
    assert table(harness.PER_LAYER) == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "paper_sweep", "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = [(name, value["unit"]) for name, value in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in SPEC[section]]
    if trace == 0:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ----------------------------------------------------------------------
# Output checks feed error_rate and the exit code
# ----------------------------------------------------------------------
def test_failed_check_counts_as_error_and_fails_the_exit_code(monkeypatch, capsys):
    calls = {"n": 0}
    real_check = paper_sweep.check

    def flaky_check(job, result):
        calls["n"] += 1
        return "injected failure" if calls["n"] % 5 == 0 else real_check(job, result)

    monkeypatch.setattr(paper_sweep, "check", flaky_check)
    code = run.main(["--workload", "paper_sweep", "--seed", "2", "--seconds", "0.3"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    error_rate = float(re.search(r"^error_rate\s+(\S+)", out, re.M).group(1))
    assert error_rate == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)
    assert "CHECK FAILED: injected failure" in out


def test_check_rejects_a_winner_far_from_the_maximum():
    rng = np.random.default_rng(0)
    instance = paper_sweep.api.planted_instance(
        n=200, u_n=4, u_e=2, delta_n=1.0, delta_e=0.25, rng=rng
    )
    job = paper_sweep._Job(instance, 4)
    sweep = paper_sweep.PaperSweep(0)
    result = paper_sweep.api.find_max(instance, sweep.naive, sweep.expert, 4, rng)
    assert paper_sweep.check(job, result) == ""
    result.winner = int(np.argmin(instance.values))
    assert "below the maximum" in paper_sweep.check(job, result)


# ----------------------------------------------------------------------
# Wrappers: installed only while traced, always restored, transparent
# ----------------------------------------------------------------------
def _raw_targets() -> dict[str, object]:
    recorder = spans.SpanRecorder()
    raws = {}
    for target in recorder.targets:
        module_name, _, qualname = target.path.partition(":")
        owner = __import__(module_name, fromlist=["_"])
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raws[target.path] = vars(owner)[attr]
    return raws


def test_wrappers_restore_the_originals_even_on_error():
    before = _raw_targets()
    recorder = spans.SpanRecorder()
    with pytest.raises(KeyError):
        with recorder.installed():
            during = _raw_targets()
            assert all(during[path] is not raw for path, raw in before.items())
            raise KeyError("boom")
    after = _raw_targets()
    assert all(after[path] is raw for path, raw in before.items())


def test_traced_find_max_is_bit_identical_and_records_spans():
    sweep = paper_sweep.PaperSweep(0)
    instance = paper_sweep.api.planted_instance(
        n=300, u_n=5, u_e=2, delta_n=1.0, delta_e=0.25, rng=np.random.default_rng(1)
    )

    def once():
        r = paper_sweep.api.find_max(instance, sweep.naive, sweep.expert, 5,
                                     np.random.default_rng(7))
        return r.winner, r.naive_comparisons, r.expert_comparisons, list(r.survivors)

    plain = once()
    recorder = spans.SpanRecorder(keep_spans=True)
    with recorder.installed():
        traced = once()
    assert traced == plain
    inclusive, self_time, calls, counts = recorder.totals()
    assert calls["core.find_max"] == 1 and calls["core.filter"] == 1
    assert counts["oracle.fresh"] == plain[1] + plain[2]
    # Self times of nested spans add up to the outermost span.
    assert sum(self_time.values()) == pytest.approx(inclusive["core.find_max"], rel=1e-9)


class _ProbeWorkload:
    """Checks, inside the timed phase, that no program callable is wrapped."""

    def __init__(self):
        self.before = _raw_targets()
        self.unchanged = None

    def setup(self):
        pass

    def timed(self, seconds, recorder):
        now = _raw_targets()
        self.unchanged = all(now[p] is raw for p, raw in self.before.items())
        return harness.Phase(1.0, [0.001], [1.0], 1, 0)

    def teardown(self):
        pass

    close = teardown


def test_untraced_runs_install_no_wrappers():
    probe = _ProbeWorkload()

    def no_recorder():
        raise AssertionError("an untraced run built a span recorder")

    metrics, phase, _ = harness.measure(probe, 1.0, False, no_recorder)
    assert probe.unchanged is True
    assert set(metrics) == {m.name for m in harness.END_TO_END}


# ----------------------------------------------------------------------
# shared_pools: a fresh state directory per round, removed afterwards
# ----------------------------------------------------------------------
@pytest.fixture
def small_pools(monkeypatch, tmp_path):
    monkeypatch.setattr(shared_pools, "N_JOBS", 8)
    monkeypatch.setattr(shared_pools, "CATALOGS", 2)
    monkeypatch.setattr(shared_pools, "N", 80)
    monkeypatch.setattr(shared_pools, "STATE_ROOT", tmp_path / "state")
    return shared_pools.SharedPools(5)


def test_shared_pools_state_dir_is_fresh_and_removed(small_pools, monkeypatch):
    seen = []
    real_pass = small_pools._pass

    def spy(state_dir):
        seen.append((state_dir, state_dir.exists()))
        return real_pass(state_dir)

    monkeypatch.setattr(small_pools, "_pass", spy)
    small_pools.setup()
    phase = small_pools.timed(0.01, None)
    assert not phase.problems and phase.failed == 0 and phase.attempted == 8
    assert not small_pools.state_dir.exists()
    # Each round: the cold pass finds no directory, the restart pass finds it.
    assert [exists for _, exists in seen] == [False, True] * (len(seen) // 2)
    assert len({path for path, _ in seen}) == 1
    small_pools.close()
    assert not small_pools.state_dir.exists()


def test_shared_pools_refuses_a_stale_state_dir(small_pools):
    small_pools.setup()
    small_pools.state_dir.mkdir(parents=True)
    with pytest.raises(RuntimeError, match="not fresh"):
        small_pools.timed(0.01, None)
    small_pools.close()
    assert not small_pools.state_dir.exists()


def test_shared_pools_detects_a_replay_that_differs(small_pools, monkeypatch):
    small_pools.setup()
    real_signature = shared_pools._signature
    calls = {"n": 0}

    def drifting(outcome):
        calls["n"] += 1
        sig = real_signature(outcome)
        return sig + (calls["n"],)

    monkeypatch.setattr(shared_pools, "_signature", drifting)
    phase = small_pools.timed(0.01, None)
    assert phase.failed == phase.attempted
    small_pools.close()


# ----------------------------------------------------------------------
# http_load: end to end at a tiny size; the load generator is stopped
# ----------------------------------------------------------------------
def test_http_load_round_trip_stops_its_process(monkeypatch):
    import http_load

    monkeypatch.setattr(http_load, "PREGENERATED", 64)
    monkeypatch.setattr(http_load, "WARMUP_JOBS", 8)
    monkeypatch.setattr(http_load, "PARITY_EVERY", 4)
    affinity = os.sched_getaffinity(0)
    workload = http_load.HttpLoad(9)
    proc = workload._proc
    try:
        workload.setup()
        phase = workload.timed(0.3, None)
    finally:
        workload.close()
    assert proc.returncode is not None
    assert os.sched_getaffinity(0) == affinity
    assert not phase.problems and phase.failed == 0 and phase.attempted >= 1
    assert phase.extra["parity_checked"][0] >= 1


# ----------------------------------------------------------------------
# Steadiness arithmetic
# ----------------------------------------------------------------------
def test_spread_and_agreement():
    assert steady.spread([10.0] * 10) == 0.0
    assert steady.spread([9, 10, 10, 10, 11]) == pytest.approx(
        (10.5 - 9.5) / 10.0
    )
    assert steady.worse_by(100.0, 90.0, "higher") == pytest.approx(0.1)
    assert steady.worse_by(100.0, 90.0, "lower") == pytest.approx(-0.1)
    spec = {"end_to_end": [{"name": "jobs_per_s", "better": "higher", "bound": 0.05},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}

    def runs(rate, setup):
        return [{"metrics": {"jobs_per_s": {"value": rate + d},
                             "setup_s": {"value": setup * (1 + 0.3 * d)}}}
                for d in (-0.1, 0.0, 0.1, 0.0)]

    rows = {r["name"]: r for r in steady.compare(spec, [runs(100, 1), runs(90, 1)])}
    assert rows["jobs_per_s"]["agree"] is False
    assert rows["setup_s"]["agree"] is True
