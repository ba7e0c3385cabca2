"""Shard supervisor failure paths: crash, hang, retry, quarantine.

Faults are injected with the deterministic ``repro.chaos.procfault``
plans (worker kill -9, silent hang, raise) exactly as a ``--procfault``
CLI run would, so these tests exercise the same recovery machinery end
to end: replacing a dead worker and charging its shard,
heartbeat-deadline reaping, deterministic retry budgets, structured
ShardFailure quarantine, and the per-shard accounting of each.
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


def _square(x):
    return x * x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


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


def _silent_first_attempt(worker, index, item, attempt, post=None):
    """``_run_shard`` whose shard 1 wedges before its start heartbeat on
    the first attempt."""
    if index == 1 and attempt == 0:
        time.sleep(60)
    return _run_shard(worker, index, item, attempt, post)


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

    def test_exhausted_retries_still_propagate(self):
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01)
        with pytest.raises(ValueError):
            fanout_map(_boom, [1, 2, 3, 4], jobs=2, policy=policy)
        assert fanout_stats()["retries"] >= 1

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


class TestRetryThenSucceed:
    def test_pool_injected_raise_retries_and_succeeds(self):
        # raise@1 fires on shard 1's first attempt only; the retry runs
        # with attempt=1 and proceeds — deterministic recovery.
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01)
        with _pool_env("raise@1"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        assert results == [0, 1, 4, 9]
        stats = fanout_stats()
        assert stats["retries"] == 1
        assert stats["attempts"] == 5
        assert stats["quarantined"] == []

    def test_serial_injected_raise_retries_and_succeeds(self):
        from repro.chaos import procfault

        policy = FanoutPolicy(max_attempts=3, backoff_base=0.01)
        plan = procfault.parse_procfault("raise@2,raise@2.1")
        with procfault.activated(plan):
            results = fanout_map(_square, [0, 1, 2], jobs=1, policy=policy)
        assert results == [0, 1, 4]
        assert fanout_stats()["retries"] == 2

    def test_serial_exhausted_budget_raises(self):
        from repro.chaos import procfault

        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01)
        plan = procfault.parse_procfault("raise@0,raise@0.1")
        with procfault.activated(plan):
            with pytest.raises(ProcFaultError):
                fanout_map(_square, [0, 1], jobs=1, policy=policy)


class TestWorkerKill:
    def test_sigkill_breaks_pool_and_run_recovers(self):
        # kill@1 SIGKILLs the worker running shard 1 (attempt 0): the
        # supervisor replaces that worker and charges shard 1 a crash;
        # the re-run (attempt 1) passes the fault.
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01,
                              heartbeat_timeout=KILL_DEADLINE)
        with _pool_env("kill@1"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        assert results == [0, 1, 4, 9]
        assert fanout_stats()["pool_respawns"] >= 1

    def test_one_kill_costs_one_retry(self):
        # Only the dead worker's shard re-runs: six cells, one kill,
        # seven attempts and one replaced worker.
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01,
                              heartbeat_timeout=KILL_DEADLINE)
        with _pool_env("kill@1"):
            results = fanout_map(_square, list(range(6)), jobs=2,
                                 policy=policy)
        assert results == [x * x for x in range(6)]
        stats = fanout_stats()
        assert stats["attempts"] == 7
        assert stats["retries"] == 1
        assert stats["pool_respawns"] == 1

    def test_repeated_kills_exhaust_budget(self):
        # Shard 1's worker dies on every attempt; each death is charged
        # to shard 1, and the supervisor gives up with a structured
        # crash error.
        policy = FanoutPolicy(max_attempts=1, backoff_base=0.01,
                              heartbeat_timeout=KILL_DEADLINE)
        spec = ",".join(f"kill@1.{a}" if a else "kill@1" for a in range(6))
        with _pool_env(spec):
            with pytest.raises(WorkerCrashError) as excinfo:
                fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert 1 in excinfo.value.shards

    def test_kill_quarantines_instead_of_raising(self):
        policy = FanoutPolicy(max_attempts=1, backoff_base=0.01,
                              heartbeat_timeout=KILL_DEADLINE,
                              quarantine=True)
        spec = ",".join(f"kill@1.{a}" if a else "kill@1" for a in range(6))
        with _pool_env(spec):
            results = fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert results[0] == 0 and results[2] == 4
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "crash"
        assert fanout_stats()["quarantined"] == [failure.to_dict()]


class TestHeartbeatReaping:
    def test_silent_hang_is_reaped_and_retried(self):
        # hang@1/60 sends shard 1 heartbeat-silent for a minute; the
        # 1s deadline reaps its worker long before that and the retry
        # (attempt 1) passes the fault.
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01,
                              heartbeat_timeout=1.0)
        with _pool_env("hang@1/60"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        assert results == [0, 1, 4, 9]
        assert fanout_stats()["reaped"] >= 1

    def test_kill_and_hang_are_each_charged_once(self):
        # The kill must not take the hanging shard's worker down with
        # it: shard 2 hangs, is reaped, and retries like shard 1 does.
        policy = FanoutPolicy(max_attempts=3, backoff_base=0.01,
                              heartbeat_timeout=2.0)
        with _pool_env("kill@1,hang@2/30"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        assert results == [0, 1, 4, 9]
        stats = fanout_stats()
        assert stats["reaped"] == 1
        assert stats["retries"] == 2
        assert stats["attempts"] == 6
        assert stats["pool_respawns"] == 2

    def test_hang_quarantines_with_hang_kind(self):
        policy = FanoutPolicy(max_attempts=1, backoff_base=0.01,
                              heartbeat_timeout=1.0, quarantine=True)
        with _pool_env("hang@1/60"):
            results = fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "hang"
        assert results[0] == 0 and results[2] == 4


class TestStartSilence:
    """A worker that never posts its start heartbeat is silent since the
    hand-off; the deadline must still reap it and charge its shard."""

    def test_start_silent_shard_is_recycled_and_retried(self, monkeypatch):
        monkeypatch.setattr(pool, "_run_shard", _silent_first_attempt)
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01,
                              heartbeat_timeout=1.0)
        results = fanout_map(_square, [0, 1, 2, 3], jobs=2, policy=policy)
        assert results == [0, 1, 4, 9]
        stats = fanout_stats()
        assert stats["reaped"] >= 1 and stats["pool_respawns"] >= 1

    def test_start_silent_shard_exhausts_budget_as_a_hang(self, monkeypatch):
        monkeypatch.setattr(pool, "_run_shard", _silent_first_attempt)
        policy = FanoutPolicy(max_attempts=1, heartbeat_timeout=1.0)
        with pytest.raises(ShardHungError, match="never started") as excinfo:
            fanout_map(_square, [0, 1, 2], jobs=2, policy=policy)
        assert excinfo.value.shards == [1]

    def test_queued_shards_are_not_start_silent(self):
        # Six 0.7s cells on two workers: the queued ones wait well past
        # the 1s deadline, but the deadline runs from each hand-off.
        policy = FanoutPolicy(max_attempts=1, heartbeat_timeout=1.0)
        assert fanout_map(_nap, [0.7] * 6, jobs=2, policy=policy) \
            == [0.7] * 6
        assert fanout_stats()["reaped"] == 0


class TestQuarantine:
    def test_poison_cell_leaves_structured_failure(self):
        policy = FanoutPolicy(max_attempts=2, backoff_base=0.01,
                              quarantine=True)
        with _pool_env("raise@1,raise@1.1"):
            results = fanout_map(_square, [0, 1, 2, 3], jobs=2,
                                 policy=policy)
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 2
        assert "injected fault" in failure.error
        assert [results[0], results[2], results[3]] == [0, 4, 9]

    def test_serial_quarantine_matches_pool_shape(self):
        policy = FanoutPolicy(max_attempts=1, quarantine=True)
        results = fanout_map(_boom, [1, 2, 3, 4], jobs=1, policy=policy)
        assert results[:2] == [1, 2] and results[3] == 4
        assert isinstance(results[2], ShardFailure)
        assert results[2].kind == "exception"
        assert "boom" in results[2].error


class TestAmbientSupervision:
    def test_supervision_context_applies_policy(self):
        with supervision(FanoutPolicy(max_attempts=2, backoff_base=0.01,
                                      quarantine=True)):
            results = fanout_map(_boom, [1, 2, 3, 4], jobs=2)
        assert isinstance(results[2], ShardFailure)
        stats = fanout_stats()
        assert stats["retries"] == 1
        assert stats["shards"] == 4
