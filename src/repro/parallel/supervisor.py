"""The shard supervisor: fault-tolerant scheduling over worker processes.

``pool.map`` dies with its first casualty: one crashed worker, one
poison cell, or one hung shard aborts the whole fan-out with nothing
salvaged.  The supervisor replaces it with per-shard control:

* **bounded deterministic retries** — a failed attempt requeues with
  exponential backoff (no jitter: retry timing never feeds results);
* **crash recovery** — a worker that dies while holding a shard charges
  that shard a ``crash``; only that worker is replaced;
* **hung-shard reaping** — with a heartbeat deadline set, a worker
  silent past the deadline (since its last message, or since the
  hand-off if the shard never started) is SIGKILLed and replaced, and
  its shard charged a ``hang`` (the recovery-timer idea from T-RACKs,
  applied to the harness);
* **hedged execution** — with a hedge threshold set, a straggler shard
  is handed to an idle worker too and the first finisher wins
  (RepFlow's replicate-and-take-first, applied to cells; results are
  bit-identical because cells are deterministic functions of their
  seeds);
* **quarantine** — a shard that exhausts its budget becomes a
  structured :class:`ShardFailure` in its result slot instead of an
  exception, so a sweep degrades to a report that names exactly which
  cells are missing.

The supervisor starts its workers itself, one duplex pipe each
(:func:`repro.parallel.pool._worker_main`), and hands a shard only to
an idle worker, so it always knows which worker holds which shard and
every failure has exactly one owner.  A winning reply's scheduler
tie-break counts fold into this process's, as if the cell had run here.

Everything is policy-gated: the default :class:`FanoutPolicy` (one
attempt, no deadline, no hedging, no quarantine) reproduces the old
``pool.map`` semantics — first failure propagates.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ShardHungError, WorkerCrashError
from repro.obs import progress as _progress
from repro.parallel.policy import FanoutPolicy, ShardFailure, SupervisorStats
from repro.parallel.pool import WorkerEnv, _item_label, _worker_main
from repro.sim.simulator import fold_tie_break_stats

__all__ = ["ShardSupervisor"]


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of
    the error it raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


class _Task:
    """Parent-side state for one shard."""

    __slots__ = ("index", "item", "label", "submissions", "failures",
                 "next_eligible", "submitted_at", "hedged", "holders")

    def __init__(self, index: int, item: Any) -> None:
        self.index = index
        self.item = item
        self.label = _item_label(item)
        self.submissions = 0        # attempt numbers handed to workers
        self.failures = 0           # consumed retry budget
        self.next_eligible = 0.0    # backoff gate (perf_counter clock)
        self.submitted_at = 0.0
        self.hedged = False
        self.holders = 0            # workers running an attempt of it


class _Worker:
    """One worker process, its end of the pipe, and the shard it holds."""

    __slots__ = ("process", "conn", "task", "hedge", "started", "heard_at")

    def __init__(self, env: Optional[WorkerEnv], shard: int) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child, env, shard),
            name=f"shard-worker-{shard}")
        self.process.start()
        child.close()
        self.task: Optional[_Task] = None
        self.hedge = False
        self.started = False   # a heartbeat arrived for the held shard
        self.heard_at = 0.0    # last message, or the hand-off


def _terminate(processes) -> None:
    """SIGTERM ``processes``, SIGKILL any still alive a second later, and
    join (reap) every one."""
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(1.0)
        if process.exitcode is None:
            process.kill()
            process.join()


class ShardSupervisor:
    """Supervised execution of ``worker`` over ``items`` on up to
    ``workers`` worker processes; see the module docstring for the
    failure model.

    ``on_result(index, value)`` fires in the parent as each shard
    completes (the journal's crash-safe append hook).  ``results`` may
    be pre-populated with journal-replayed values; those shards are
    never scheduled.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        items: Sequence[Any],
        workers: int,
        policy: FanoutPolicy,
        env: Optional[WorkerEnv] = None,
        plane: Optional["_progress.ProgressPlane"] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
        results: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.worker = worker
        self.items = list(items)
        self.workers = workers
        self.policy = policy
        self.env = env
        self.plane = plane
        self.on_result = on_result
        self.results: Dict[int, Any] = dict(results or {})
        self.stats = SupervisorStats(shards=len(self.items))
        self.tasks: Dict[int, _Task] = {
            i: _Task(i, item) for i, item in enumerate(self.items)
            if i not in self.results
        }
        self._pending: List[_Task] = sorted(self.tasks.values(),
                                            key=lambda t: t.index)
        self._pool: List[_Worker] = []
        self._spawned = 0  # the next worker's shard number

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> List[Any]:
        """Execute every shard; returns results in item order.

        Raises the shard's terminal error (worker exception,
        :class:`~repro.errors.WorkerCrashError`, or
        :class:`~repro.errors.ShardHungError`) unless the policy
        quarantines, in which case the failed slots hold
        :class:`ShardFailure` records.
        """
        try:
            self._loop()
        except BaseException:
            # Ctrl-C, a shard's terminal error: no worker may outlive
            # the fan-out.
            _terminate([worker.process for worker in self._pool])
            raise
        for worker in self._pool:
            if worker.task is not None:
                worker.process.kill()  # a hedge loser, still mid-cell
                continue
            try:
                worker.conn.send(None)  # closes its sessions, then exits
            except OSError:
                pass  # it has already ended
        for worker in self._pool:
            worker.process.join()
            worker.conn.close()
        return [self.results[i] for i in range(len(self.items))]

    def _idle_worker(self) -> Optional[_Worker]:
        """An idle worker, spawning one while fewer than ``workers``
        are alive; None when every worker holds a shard."""
        for worker in self._pool:
            if worker.task is None:
                return worker
        if len(self._pool) >= self.workers:
            return None
        worker = _Worker(self.env, self._spawned)
        self._spawned += 1
        self._pool.append(worker)
        return worker

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        policy = self.policy
        total = len(self.items)
        while len(self.results) < total:
            now = time.perf_counter()
            self._hand_eligible(now)
            self._hedge_stragglers(now)
            if not any(worker.task for worker in self._pool):
                # Everything left is backing off.
                soonest = min(t.next_eligible for t in self._pending)
                time.sleep(max(0.0, min(policy.check_interval,
                                        soonest - now)) or 0.005)
                continue
            handles = [worker.conn for worker in self._pool] \
                + [worker.process.sentinel for worker in self._pool]
            ready = set(wait(handles, timeout=policy.check_interval))
            for worker in list(self._pool):
                if worker.conn in ready or worker.process.sentinel in ready:
                    self._service(worker, ready)
            self._reap_hung(time.perf_counter())

    def _hand_eligible(self, now: float) -> None:
        still_waiting: List[_Task] = []
        for task in self._pending:
            if task.index in self.results:
                continue
            if task.next_eligible > now or not self._hand(task):
                still_waiting.append(task)
        self._pending = still_waiting

    def _hand(self, task: _Task, hedge: bool = False) -> bool:
        """Hand ``task`` to an idle worker; False when none is free."""
        worker = self._idle_worker()
        if worker is None:
            return False
        attempt = task.submissions
        task.submissions += 1
        task.holders += 1
        self.stats.attempts += 1
        now = time.perf_counter()
        if not hedge:
            task.submitted_at = now
        worker.task, worker.hedge = task, hedge
        worker.started, worker.heard_at = False, now
        try:
            worker.conn.send((self.worker, task.index, task.item, attempt))
        except OSError:
            pass  # it died idle; its sentinel charges the shard a crash
        return True

    def _service(self, worker: _Worker, ready: set) -> None:
        """Read what ``worker`` sent; retire it if it has ended."""
        ended = worker.process.sentinel in ready
        while True:
            try:
                if not worker.conn.poll():
                    break
                message = worker.conn.recv()
            except (EOFError, OSError):  # the pipe closed under it
                ended = True
                break
            self._on_message(worker, message)
        if ended:
            worker.process.join()
            self._retire(worker, "crash", "worker process died "
                         f"(exit code {worker.process.exitcode})")

    def _on_message(self, worker: _Worker, message: Any) -> None:
        worker.heard_at = time.perf_counter()
        if not isinstance(message, tuple):  # a heartbeat
            worker.started = True
            if self.plane is not None:
                self.plane.apply(message)
            return
        ok, value, ties = message
        task, hedge = worker.task, worker.hedge
        worker.task = None
        task.holders -= 1
        if task.index in self.results:
            return  # hedge loser / late duplicate
        if ok:
            fold_tie_break_stats(ties)
            self._record_result(task, value, hedge)
            return
        error, remote_traceback = value
        error.__cause__ = _RemoteTraceback(remote_traceback)
        self._attempt_failed(task, "exception", error)

    def _record_result(self, task: _Task, value: Any, is_hedge: bool) -> None:
        self.results[task.index] = value
        if is_hedge:
            self.stats.hedges_won += 1
        if self.on_result is not None:
            self.on_result(task.index, value)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _retire(self, worker: _Worker, kind: str, error: str) -> None:
        """Drop an ended worker (the next hand-off spawns its
        replacement) and charge the shard it held."""
        self._pool.remove(worker)
        worker.conn.close()
        self.stats.pool_respawns += 1
        task = worker.task
        if task is not None:
            task.holders -= 1
            if task.index not in self.results:
                self._attempt_failed(task, kind, error)

    def _attempt_failed(self, task: _Task, kind: str, error: Any) -> None:
        if task.holders:
            # A duplicate of this shard is still running; it may yet
            # win.  The failed attempt is only charged when the shard
            # has no other iron in the fire.
            return
        task.failures += 1
        if task.failures >= self.policy.max_attempts:
            self._finalize_failure(task, kind, error)
            return
        self.stats.retries += 1
        task.next_eligible = (time.perf_counter()
                              + self.policy.backoff(task.failures))
        task.hedged = False
        self._pending.append(task)
        if self.plane is not None:
            self.plane.apply(_progress.ProgressEvent(
                task.index, "retry", label=task.label))

    def _finalize_failure(self, task: _Task, kind: str, error: Any) -> None:
        failure = ShardFailure(task.index, task.label, kind, str(error),
                               task.failures)
        if self.policy.quarantine:
            self.stats.quarantined.append(failure.to_dict())
            # Deliberately NOT routed through on_result: the journal
            # only ever holds real cell results, so a resumed run
            # re-attempts quarantined cells instead of replaying their
            # tombstones.
            self.results[task.index] = failure
            if self.plane is not None:
                self.plane.apply(_progress.ProgressEvent(
                    task.index, "fail", label=task.label))
            return
        if kind == "crash":
            raise WorkerCrashError(str(failure), shards=[task.index])
        if kind == "hang":
            raise ShardHungError(str(failure), shards=[task.index])
        raise error

    # ------------------------------------------------------------------
    # Liveness and hedging
    # ------------------------------------------------------------------

    def _reap_hung(self, now: float) -> None:
        timeout = self.policy.heartbeat_timeout
        if timeout is None:
            return
        for worker in list(self._pool):
            if worker.task is None or now - worker.heard_at <= timeout:
                continue
            worker.process.kill()
            worker.process.join()
            self.stats.reaped += 1
            self._retire(worker, "hang", (
                f"heartbeat-silent for more than {timeout:g}s; "
                + ("" if worker.started else "never started, ")
                + f"worker pid {worker.process.pid} reaped"))

    def _hedge_stragglers(self, now: float) -> None:
        threshold = self.policy.hedge_after
        if threshold is None:
            return
        for task in sorted(self.tasks.values(), key=lambda t: t.index):
            if (not task.holders or task.hedged
                    or task.index in self.results
                    or now - task.submitted_at <= threshold):
                continue
            if not self._hand(task, hedge=True):
                return  # no idle worker to hedge onto
            task.hedged = True
            self.stats.hedges += 1
