"""Fuzzing the v4 journal line decoder over a real journal.

The journal under test is the one the 4-job durable workload writes
(``tests/durable_workload.py``, the workload of
``tests/test_scheduler_durability.py``): a header and one ``tick`` line
per tick.  Two contracts (see docs/DURABILITY.md):

* **bytes** — with bytes flipped, dropped or cut off, ``recover`` never
  raises; it returns the records of the longest prefix of whole, valid
  lines (never a damaged record), truncates the file to exactly those
  lines, and a second recovery changes nothing;
* **fields** — with one field of a tick line dropped, retyped, resized,
  shuffled or given another line's digest, and the line re-CRC'd so it
  passes recovery, a resume either raises ``DurabilityError``
  (``JournalMismatchError`` included) or completes, and it never raises
  another exception type or hangs.
"""

import threading

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - the durability CI job installs hypothesis
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.durability import DurabilityError, JobJournal

from durable_workload import run_durable_workload
from test_scheduler_durability import make_workload, rewrite_journal

FUZZ_SETTINGS = settings(deadline=None, derandomize=True, database=None)

#: A resume of the 4-job workload takes well under a second; one still
#: running after this long is hung.
RESUME_TIMEOUT_S = 60


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """The raw bytes and records of a completed run's journal."""
    state = tmp_path_factory.mktemp("journal")
    run_durable_workload(make_workload(), state)
    path = state / "journal.jsonl"
    return path.read_bytes(), JobJournal.recover(path)


# ----------------------------------------------------------------------
# Bytes
# ----------------------------------------------------------------------
damage = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(0, 7)),
        st.tuples(st.just("drop"), st.integers(min_value=0), st.integers(1, 64)),
        st.tuples(st.just("cut"), st.integers(min_value=0), st.just(0)),
    ),
    min_size=1,
    max_size=4,
)


def apply_damage(raw, edits):
    """``raw`` with each edit applied in turn; also the offset of the
    first byte any edit touched."""
    data = bytearray(raw)
    first = len(raw)
    for kind, at, arg in edits:
        if not data:
            break
        at %= len(data)
        first = min(first, at)
        if kind == "flip":
            data[at] ^= 1 << arg
        elif kind == "drop":
            del data[at : at + arg]
        else:
            del data[at:]
    return bytes(data), first


class TestDamagedBytes:
    @FUZZ_SETTINGS
    @given(edits=damage)
    def test_recover_returns_an_intact_prefix(self, tmp_path_factory, journal, edits):
        raw, originals = journal
        damaged, first = apply_damage(raw, edits)
        path = tmp_path_factory.mktemp("bytes") / "journal.jsonl"
        path.write_bytes(damaged)
        records = JobJournal.recover(path)
        kept = path.read_bytes()
        # Truncated to whole lines of what was there, never rewritten.
        assert damaged.startswith(kept)
        assert kept.count(b"\n") == len(records)
        assert not kept or kept.endswith(b"\n")
        # Every line before the first damaged byte survives, and no
        # damaged line passes as a record.
        assert len(records) >= raw[:first].count(b"\n")
        assert all(record in originals for record in records)
        # Well-formed: recovering again finds nothing to drop.
        assert JobJournal.recover(path) == records
        assert path.read_bytes() == kept


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------
TICK_FIELDS = [
    "tick", "jobs", "pools", "judgments", "sizes", "charges", "bought",
    "miss", "answers", "pairs", "settled",
]


def retype(value):
    """A value of another JSON type than ``value``."""
    if isinstance(value, bool) or value is None:
        return 0
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, list):
        return {"items": value}
    return [value]


def resize(value, grow):
    if isinstance(value, list):
        return value + value[:1] if grow else value[:-1]
    if isinstance(value, str):
        return value + "AAAA" if grow else value[:-4]
    return value + 1 if grow else value - 1


def shuffle(value, order):
    if isinstance(value, list):
        return [value[k % len(value)] for k in order[: len(value)]] if value else value
    if isinstance(value, str):
        return value[::-1]
    return value


edits = st.tuples(
    st.integers(min_value=0),
    st.sampled_from(TICK_FIELDS),
    st.one_of(
        st.tuples(st.just("drop"), st.none()),
        st.tuples(st.just("retype"), st.none()),
        st.tuples(st.just("resize"), st.booleans()),
        st.tuples(st.just("shuffle"), st.permutations(range(8))),
        st.tuples(st.just("digest"), st.integers(min_value=0)),
    ),
)


def resume(state):
    """Resume the workload in a thread; returns its exception or None,
    and fails the test when the resume outlives ``RESUME_TIMEOUT_S``."""
    outcome = {}

    def run():
        try:
            run_durable_workload(make_workload(), state)
        except Exception as exc:  # handed to the caller, which checks its type
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(RESUME_TIMEOUT_S)
    assert not thread.is_alive(), "resume hung"
    return outcome.get("error")


class TestEditedTickLine:
    @FUZZ_SETTINGS
    @given(edit=edits)
    def test_resume_refuses_typed_or_completes(self, tmp_path_factory, journal, edit):
        raw, originals = journal
        which, field, (how, arg) = edit
        ticks = [r for r in originals[1:] if r["kind"] == "tick"]
        victim = ticks[which % len(ticks)]["tick"]

        def change(record):
            if record["kind"] != "tick" or record["tick"] != victim:
                return record
            if how == "drop":
                record.pop(field)
            elif how == "retype":
                record[field] = retype(record[field])
            elif how == "resize":
                record[field] = resize(record[field], arg)
            elif how == "shuffle":
                record[field] = shuffle(record[field], arg)
            else:
                record["pairs"] = ticks[arg % len(ticks)]["pairs"]
            return record

        state = tmp_path_factory.mktemp("fields")
        path = state / "journal.jsonl"
        path.write_bytes(raw)
        rewrite_journal(path, change)
        assert len(JobJournal.recover(path)) == len(originals)
        error = resume(state)
        if error is not None and not isinstance(error, DurabilityError):
            raise AssertionError(
                f"{how} {field!r} of tick {victim}: {type(error).__name__}: {error}"
            ) from error

    def test_edits_reach_the_replay_checks(self, tmp_path, journal):
        """The strategy's edits are not all caught by recovery: another
        line's digest passes it and is refused at replay."""
        raw, originals = journal
        victim = originals[1]
        other = next(r for r in originals[2:] if r["jobs"] and r["pairs"] != victim["pairs"])
        path = tmp_path / "journal.jsonl"
        path.write_bytes(raw)

        def swap(record):
            if record["kind"] == "tick" and record["tick"] == victim["tick"]:
                record["pairs"] = other["pairs"]
            return record

        rewrite_journal(path, swap)
        error = resume(tmp_path)
        assert isinstance(error, DurabilityError)
        assert getattr(error, "field", None) == "tick.pairs"
