"""Cell journal: durability, torn-line tolerance, resume byte-identity."""

import json

import pytest

from repro.parallel import (
    CellJournal,
    FanoutPolicy,
    ShardFailure,
    cell_digest,
    current_journal,
    fanout_map,
    fanout_stats,
    journaling,
    pool,
    reset_fanout_stats,
)
from repro.sim.simulator import (Simulator, reset_tie_break_stats,
                                 tie_break_stats)


def _square(x):
    return x * x


def _cube(x):
    return x ** 3


def _boom(x):
    if x == 2:
        raise ValueError("boom")
    return x


def _never_run(*args, **kwargs):
    raise AssertionError("a replayed cell ran again")


def _tied(n):
    """One simulator firing ``n`` events at each of two instants: two
    tie-break groups of size ``n``."""
    sim = Simulator()
    for time in (1.0, 2.0):
        for _ in range(n):
            sim.schedule(time, lambda: None)
    sim.run()
    return n


NO_TIES = {"groups": 0, "max_group": 0}


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_fanout_stats()
    yield


class TestCellDigest:
    def test_stable_across_calls(self):
        assert cell_digest(_square, (1, "a")) == cell_digest(_square, (1, "a"))

    def test_distinguishes_worker_and_item(self):
        assert cell_digest(_square, 1) != cell_digest(_cube, 1)
        assert cell_digest(_square, 1) != cell_digest(_square, 2)

    def test_spec_objects_digest_by_spec_not_address(self):
        from repro.chaos.profiles import get_profile

        a = cell_digest(_square, ("tcp", get_profile("wifi-bursty", seed=7)))
        b = cell_digest(_square, ("tcp", get_profile("wifi-bursty", seed=7)))
        c = cell_digest(_square, ("tcp", get_profile("wifi-bursty", seed=8)))
        assert a == b
        assert a != c


class TestCellJournal:
    def test_append_then_replay_roundtrips(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        ties = {"groups": 3, "max_group": 2}
        journal.append("d1", "cell-1", {"value": 41}, ties)
        journal.append("d2", "cell-2", [1, 2, 3], NO_TIES)
        journal.close()
        replayed = CellJournal(str(tmp_path / "run")).replay()
        assert replayed == {"d1": ({"value": 41}, ties),
                            "d2": ([1, 2, 3], NO_TIES)}

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        journal.append("d1", "cell-1", 41, NO_TIES)
        journal.append("d2", "cell-2", 42, NO_TIES)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.parallel.journal/2", "digest": "d3')
        fresh = CellJournal(str(tmp_path / "run"))
        assert fresh.replay() == {"d1": (41, NO_TIES), "d2": (42, NO_TIES)}
        assert fresh.skipped_lines == 1

    def test_line_without_tie_break_counts_reruns_its_cell(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        journal.append("d1", "cell-1", 41, NO_TIES)
        journal.close()
        with open(journal.path, encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        del record["ties"]
        record["digest"] = "d2"
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        fresh = CellJournal(str(tmp_path / "run"))
        assert fresh.replay() == {"d1": (41, NO_TIES)}
        assert fresh.skipped_lines == 1

    def test_entries_carry_schema_and_label(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        journal.append("d1", "tcp:wifi", 41, NO_TIES)
        journal.close()
        with open(journal.path, encoding="utf-8") as fh:
            record = json.loads(fh.readline())
        assert record["schema"] == "repro.parallel.journal/2"
        assert record["label"] == "tcp:wifi"
        assert record["ties"] == NO_TIES

    def test_file_digest_changes_with_content(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        assert journal.file_digest() is None
        journal.append("d1", "cell", 1, NO_TIES)
        first = journal.file_digest()
        journal.append("d2", "cell", 2, NO_TIES)
        assert first is not None and journal.file_digest() != first

    def test_ambient_journaling_context(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        assert current_journal() is None
        with journaling(journal):
            assert current_journal() is journal
        assert current_journal() is None


class TestResume:
    def test_interrupted_run_resumes_byte_identical_to_serial(self, tmp_path):
        items = list(range(6))
        baseline = fanout_map(_square, items, jobs=1)

        # First run: shard 2 is poison, quarantined; completed cells
        # (and only those) land in the journal.
        policy = FanoutPolicy(quarantine=True)
        journal = CellJournal(str(tmp_path / "run"))
        first = fanout_map(_boom, [0, 1, 2, 3, 4, 5], jobs=2,
                           policy=policy, journal=journal)
        journal.close()
        assert isinstance(first[2], ShardFailure)

        # Resumed run of the *real* worker matrix: every journaled cell
        # replays, the rest compute, and the merged result is identical
        # to an uninterrupted serial run.
        reset_fanout_stats()
        journal2 = CellJournal(str(tmp_path / "run2"))
        partial = fanout_map(_square, items[:4], jobs=2, journal=journal2)
        assert partial == baseline[:4]
        journal2.close()
        resumed = fanout_map(_square, items, jobs=2,
                             journal=CellJournal(str(tmp_path / "run2")))
        assert resumed == baseline
        assert fanout_stats()["replayed"] == 4

    def test_replay_skips_reruns_nothing_when_complete(self, tmp_path,
                                                       monkeypatch):
        journal = CellJournal(str(tmp_path / "run"))
        first = fanout_map(_square, [1, 2, 3], jobs=2, journal=journal)
        journal.close()
        reset_fanout_stats()
        # Any cell that ran now, inline or in a (forked) worker, raises.
        monkeypatch.setattr(pool, "_run_shard", _never_run)
        again = fanout_map(_square, [1, 2, 3], jobs=2,
                           journal=CellJournal(str(tmp_path / "run")))
        assert again == first == [1, 4, 9]
        stats = fanout_stats()
        assert stats["replayed"] == stats["shards"] == 3
        assert stats["pool_respawns"] == 0

    def test_quarantined_cells_never_journaled(self, tmp_path):
        policy = FanoutPolicy(quarantine=True)
        journal = CellJournal(str(tmp_path / "run"))
        results = fanout_map(_boom, [0, 1, 2, 3], jobs=2,
                             policy=policy, journal=journal)
        journal.close()
        assert isinstance(results[2], ShardFailure)
        replayed = CellJournal(str(tmp_path / "run")).replay()
        assert cell_digest(_boom, 2) not in replayed
        assert len(replayed) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replayed_cells_keep_their_tie_break_counts(self, tmp_path,
                                                         jobs):
        items = [2, 3, 4]
        reset_tie_break_stats()
        fanout_map(_tied, items, jobs=jobs)
        uninterrupted = tie_break_stats()
        assert uninterrupted == {"groups": 6, "max_group": 4}

        # Two of three cells journaled, then a resume that runs the
        # third: the totals must read as if nothing was interrupted.
        journal = CellJournal(str(tmp_path / "run"))
        fanout_map(_tied, items[:2], jobs=jobs, journal=journal)
        journal.close()
        reset_tie_break_stats()
        fanout_map(_tied, items, jobs=jobs,
                   journal=CellJournal(str(tmp_path / "run")))
        assert tie_break_stats() == uninterrupted
        assert fanout_stats()["replayed"] == 2
        reset_tie_break_stats()

    def test_serial_run_journals_too(self, tmp_path):
        journal = CellJournal(str(tmp_path / "run"))
        fanout_map(_square, [1, 2], jobs=1, journal=journal)
        journal.close()
        replayed = CellJournal(str(tmp_path / "run")).replay()
        assert {value for value, _ in replayed.values()} == {1, 4}
