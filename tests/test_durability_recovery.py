"""End-to-end crash-recovery harness (SIGKILL mid-run, then resume).

The strongest durability claim gets the strongest test: a *separate
process* running the durable workload (``tests/durable_workload.py``)
is SIGKILLed partway through (its ``--crash-after`` flag arms the
journal's ``crash_after_appends`` hook — a simulated power cut with no
cleanup handlers, landing while a tick line is half written), a second
process resumes from the surviving state directory, and the resumed
run's settle outcomes must be byte-identical to an uninterrupted
control run — answers, costs, per-label ledgers — with the journaled
prefix replayed from the journal rather than re-bought.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.durability import JobJournal

REPO = Path(__file__).resolve().parent.parent
JOBS = 4
# The kill lands in the third tick line: the header and two whole tick
# lines survive, then half of the third (the uninterrupted run writes
# seven lines at this size: the header, five ticks and a last line of
# settled jobs).
CRASH_AFTER = 4


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
    """One uninterrupted durable run, shared by the assertions below,
    with the number of requests its journal holds."""
    state = tmp_path_factory.mktemp("control")
    proc = run_workload(state)
    assert proc.returncode == 0, proc.stderr
    requests = sum(len(r["jobs"]) for r in JobJournal.recover(state / "journal.jsonl")[1:])
    return {**outcomes(state), "requests": requests}


class TestKillResume:
    @pytest.fixture(scope="class")
    def crashed_then_resumed(self, tmp_path_factory):
        state = tmp_path_factory.mktemp("crashed")
        crashed = run_workload(state, "--crash-after", str(CRASH_AFTER))
        # The hook SIGKILLs the process: no exit handlers, no output.
        assert crashed.returncode == -signal.SIGKILL
        assert not (state / "outcomes.json").exists()
        # The line it died on landed in part: a torn tick line.
        written = (state / "journal.jsonl").read_bytes()
        assert written.count(b"\n") == CRASH_AFTER - 1
        assert not written.endswith(b"\n")
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
        # The journal kept the requests of the whole tick lines before
        # the torn one; all of them replay, and the rest run live.
        assert 0 < run["replayed_batches"] < control["requests"]
        assert run["replayed_operations"] > 0
        assert control["run"]["replayed_batches"] == 0

    def test_double_resume_is_stable(self, crashed_then_resumed, control):
        state, _ = crashed_then_resumed
        again = run_workload(state)
        assert again.returncode == 0, again.stderr
        assert outcomes(state)["jobs"] == control["jobs"]
