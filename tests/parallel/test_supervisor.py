"""Shard supervisor failure paths: crash, hang, exception, quarantine.

Faults are injected with the deterministic ``repro.chaos.procfault``
plans (worker kill -9, silent hang, raise) exactly as a ``--procfault``
CLI run would, so these tests exercise the same recovery machinery end
to end: replacing a dead worker and charging its shard,
heartbeat-deadline reaping, structured ShardFailure quarantine, and the
per-shard accounting of each.  Every cell runs once, so a faulted cell
is charged once and either ends the run or is quarantined.
"""

import time

import pytest

from repro.errors import ProcFaultError, ShardHungError, WorkerCrashError
from repro.parallel import (
    FanoutPolicy,
    ShardFailure,
    WorkerEnv,
    fanout_map,
    fanout_stats,
    pool,
    reset_fanout_stats,
    supervision,
    worker_env,
)
from repro.telemetry.context import alive, ambient


def _square(x):
    return x * x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _busy(seconds):
    """A cell that runs for ``seconds`` of wall clock, saying it is
    alive along the way (as a runner does at each flow completion)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        time.sleep(0.05)
        alive()
    return seconds


def _listened(_):
    return ambient.reporter is not None


def _boom(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _unpicklable(x):
    return lambda: x


def _missing(x):
    if x == 2:
        raise FileNotFoundError("no such cell")
    return x


#: Deadline for the kill tests, whose faults never go silent: a worker
#: that wedges before its start heartbeat (a fork inheriting a held
#: lock) then fails the test instead of hanging it.
KILL_DEADLINE = 20.0

_run_shard = pool._run_shard


def _silent_shard_one(worker, index, item, post=None):
    """``_run_shard`` whose shard 1 wedges before its start heartbeat."""
    if index == 1:
        time.sleep(60)
    return _run_shard(worker, index, item, post)


def _pool_env(spec):
    """Worker environment that activates a procfault plan in each pool
    worker (the same wiring --procfault uses)."""
    return worker_env(WorkerEnv(procfault_spec=spec))


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_fanout_stats()
    yield


class TestLegacySemantics:
    def test_default_policy_propagates_worker_exception(self):
        with pytest.raises(ValueError):
            fanout_map(_boom, [1, 2, 3, 4], jobs=2)

    def test_serial_injected_raise_propagates(self):
        from repro.chaos import procfault

        with procfault.activated(procfault.parse_procfault("raise@1")):
            with pytest.raises(ProcFaultError, match="shard 1"):
                fanout_map(_square, [0, 1, 2], jobs=1)

    def test_worker_exception_carries_the_remote_traceback(self):
        with pytest.raises(ValueError, match="boom") as excinfo:
            fanout_map(_boom, [1, 2, 3, 4], jobs=2)
        cause = str(excinfo.value.__cause__)
        assert "Traceback (most recent call last)" in cause
        assert 'raise ValueError("boom")' in cause

    def test_unpicklable_result_is_the_shards_exception(self):
        # The worker reports the pickling error instead of dying on it.
        with pytest.raises(Exception, match="pickle"):
            fanout_map(_unpicklable, [1, 2], jobs=2)

    def test_worker_oserror_is_an_exception_not_a_dead_pipe(self):
        # An error the cell raises is the shard's, even when it is an
        # OSError like a broken pipe would be.
        with pytest.raises(FileNotFoundError, match="no such cell"):
            fanout_map(_missing, [1, 2, 3], jobs=2)


class TestWorkerKill:
    def test_sigkill_breaks_pool_and_run_recovers(self):
        # kill@1 SIGKILLs the worker running shard 1: the supervisor
        # replaces that worker, charges shard 1 one crash, and the
        # replacement finishes every other cell.
        policy = FanoutPolicy(heartbeat_timeout=KILL_DEADLINE,
                              quarantine=True)
        with _pool_env("kill@1"):
            results = fanout_map(_square, list(range(6)), jobs=2,
                                 policy=policy)
        assert [results[i] for i in (0, 2, 3, 4, 5)] == [0, 4, 9, 16, 25]
        assert isinstance(results[1], ShardFailure)
        stats = fanout_stats()
        assert [q["index"] for q in stats["quarantined"]] == [1]
        assert stats["pool_respawns"] == 1
        assert stats["shards"] == 6

    def test_kill_ends_the_run_with_a_crash_error(self):
        policy = FanoutPolicy(heartbeat_timeout=KILL_DEADLINE)
        with _pool_env("kill@1"):
            with pytest.raises(WorkerCrashError,
                               match="shard 1 ") as excinfo:
                fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert excinfo.value.shards == [1]
        assert fanout_stats()["pool_respawns"] == 1

    def test_kill_quarantines_instead_of_raising(self):
        policy = FanoutPolicy(heartbeat_timeout=KILL_DEADLINE,
                              quarantine=True)
        with _pool_env("kill@1"):
            results = fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert results[0] == 0 and results[2] == 4
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "crash"
        assert fanout_stats()["quarantined"] == [failure.to_dict()]


class TestHeartbeatReaping:
    def test_silent_hang_is_reaped_and_ends_the_run(self):
        # hang@1/60 sends shard 1 heartbeat-silent for a minute; the
        # 1s deadline reaps its worker long before that, and the one
        # charge ends the run.
        policy = FanoutPolicy(heartbeat_timeout=1.0)
        with _pool_env("hang@1/60"):
            with pytest.raises(ShardHungError) as excinfo:
                fanout_map(_square, [0, 1, 2, 3], jobs=2, policy=policy)
        assert excinfo.value.shards == [1]
        assert fanout_stats()["reaped"] == 1

    def test_kill_and_hang_are_each_charged_once(self):
        # The kill must not take the hanging shard's worker down with
        # it: shard 1 crashes, shard 2 hangs and is reaped, and those
        # two cells alone are quarantined.
        policy = FanoutPolicy(heartbeat_timeout=2.0, quarantine=True)
        with _pool_env("kill@1,hang@2/30"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        assert results[0] == 0 and results[3] == 9
        stats = fanout_stats()
        assert [(q["index"], q["kind"]) for q in stats["quarantined"]] \
            == [(1, "crash"), (2, "hang")]
        assert stats["reaped"] == 1
        assert stats["pool_respawns"] == 2
        assert "retries" not in stats and "attempts" not in stats

    def test_hang_quarantines_with_hang_kind(self):
        policy = FanoutPolicy(heartbeat_timeout=1.0, quarantine=True)
        with _pool_env("hang@1/60"):
            results = fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "hang"
        assert results[0] == 0 and results[2] == 4


class TestLiveness:
    def test_a_shard_that_says_it_is_alive_is_not_reaped(self):
        # Each ~3 s cell outlives the 1 s deadline three times over; its
        # throttled alive() messages are all that keep it from a reaping.
        policy = FanoutPolicy(heartbeat_timeout=1.0)
        assert fanout_map(_busy, [3.0, 3.0], jobs=2, policy=policy) \
            == [3.0, 3.0]
        assert fanout_stats()["reaped"] == 0

    def test_only_a_worker_listens(self):
        # Nothing reaps in-process, so a serial cell's alive() posts
        # nothing; a worker's cell has its pinger.
        assert fanout_map(_listened, [0, 1], jobs=1) == [False, False]
        assert fanout_map(_listened, [0, 1], jobs=2) == [True, True]
        assert ambient.reporter is None


class TestStartSilence:
    """A worker that never posts its start heartbeat is silent since the
    hand-off; the deadline must still reap it and charge its shard."""

    def test_start_silent_shard_is_reaped_and_quarantined(self, monkeypatch):
        monkeypatch.setattr(pool, "_run_shard", _silent_shard_one)
        policy = FanoutPolicy(heartbeat_timeout=1.0, quarantine=True)
        results = fanout_map(_square, [0, 1, 2, 3], jobs=2, policy=policy)
        assert [results[0], results[2], results[3]] == [0, 4, 9]
        assert results[1].kind == "hang"
        assert "never started" in results[1].error
        stats = fanout_stats()
        assert stats["reaped"] == 1 and stats["pool_respawns"] == 1

    def test_start_silent_shard_ends_the_run_as_a_hang(self, monkeypatch):
        monkeypatch.setattr(pool, "_run_shard", _silent_shard_one)
        policy = FanoutPolicy(heartbeat_timeout=1.0)
        with pytest.raises(ShardHungError, match="never started") as excinfo:
            fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert excinfo.value.shards == [1]

    def test_queued_shards_are_not_start_silent(self):
        # Six 0.7s cells on two workers: the queued ones wait well past
        # the 1s deadline, but the deadline runs from each hand-off.
        policy = FanoutPolicy(heartbeat_timeout=1.0)
        assert fanout_map(_nap, [0.7] * 6, jobs=2, policy=policy) \
            == [0.7] * 6
        assert fanout_stats()["reaped"] == 0


class TestQuarantine:
    def test_poison_cell_leaves_structured_failure(self):
        policy = FanoutPolicy(quarantine=True)
        with _pool_env("raise@1"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "exception"
        assert "injected fault" in failure.error
        assert [results[0], results[2], results[3]] == [0, 4, 9]

    def test_serial_quarantine_matches_pool_shape(self):
        policy = FanoutPolicy(quarantine=True)
        results = fanout_map(_boom, [1, 2, 3, 4], jobs=1, policy=policy)
        assert results[:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], ShardFailure)
        assert results[2].kind == "exception"
        assert "boom" in results[2].error


class TestAmbientSupervision:
    def test_supervision_context_applies_policy(self):
        with supervision(FanoutPolicy(quarantine=True)):
            results = fanout_map(_boom, [1, 2, 3, 4], jobs=2)
        assert isinstance(results[2], ShardFailure)
        stats = fanout_stats()
        assert [q["index"] for q in stats["quarantined"]] == [2]
        assert stats["shards"] == 4
