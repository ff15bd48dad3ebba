"""End-to-end crash-recovery harness (SIGKILL mid-run, then resume).

The strongest durability claim gets the strongest test: a *separate
process* running the durable workload (``tests/durable_workload.py``)
is SIGKILLed partway through (its ``--crash-after`` flag arms the
journal's ``crash_after_appends`` hook — a simulated power cut with no
cleanup handlers), a second process resumes from the surviving state
directory, and the resumed run's settle outcomes must be
byte-identical to an uninterrupted control run — answers, costs,
per-label ledgers — with the settled prefix replayed from the journal
rather than re-bought.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
JOBS = 4
# Past the header and a few settled batches, well before the run ends
# (the uninterrupted run journals dozens of appends at this size).
CRASH_AFTER = 6


def run_workload(state_dir, *extra):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [
            sys.executable,
            "tests/durable_workload.py",
            "--state-dir",
            str(state_dir),
            "--jobs",
            str(JOBS),
            *extra,
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def outcomes(state_dir):
    return json.loads((Path(state_dir) / "outcomes.json").read_text())


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """One uninterrupted durable run, shared by the assertions below."""
    state = tmp_path_factory.mktemp("control")
    proc = run_workload(state)
    assert proc.returncode == 0, proc.stderr
    return outcomes(state)


class TestKillResume:
    @pytest.fixture(scope="class")
    def crashed_then_resumed(self, tmp_path_factory):
        state = tmp_path_factory.mktemp("crashed")
        crashed = run_workload(state, "--crash-after", str(CRASH_AFTER))
        # The hook SIGKILLs the process: no exit handlers, no output.
        assert crashed.returncode == -signal.SIGKILL
        assert not (state / "outcomes.json").exists()
        resumed = run_workload(state)
        assert resumed.returncode == 0, resumed.stderr
        return state, resumed

    def test_crash_leaves_resumable_state(self, crashed_then_resumed):
        state, resumed = crashed_then_resumed
        assert (state / "journal.jsonl").exists()
        assert (state / "outcomes.json").exists()
        assert "replayed" in resumed.stdout

    def test_resumed_jobs_identical_to_uninterrupted(
        self, crashed_then_resumed, control
    ):
        state, _ = crashed_then_resumed
        # Bit-for-bit: answers, total costs, per-label ledger entries
        # (operations and unrounded money), step counters, statuses.
        assert outcomes(state)["jobs"] == control["jobs"]

    def test_settled_prefix_was_replayed_not_rebought(
        self, crashed_then_resumed, control
    ):
        state, _ = crashed_then_resumed
        run = outcomes(state)["run"]
        # The journal held CRASH_AFTER appends: one header plus served
        # batches (minus any settled markers); all of them must replay.
        assert 0 < run["replayed_batches"] < CRASH_AFTER
        assert run["replayed_operations"] > 0
        assert control["run"]["replayed_batches"] == 0

    def test_double_resume_is_stable(self, crashed_then_resumed, control):
        state, _ = crashed_then_resumed
        again = run_workload(state)
        assert again.returncode == 0, again.stderr
        assert outcomes(state)["jobs"] == control["jobs"]
