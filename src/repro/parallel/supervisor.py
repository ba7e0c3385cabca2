"""The shard supervisor: fault-tolerant scheduling over a process pool.

``pool.map`` dies with its first casualty: one crashed worker, one
poison cell, or one hung shard aborts the whole fan-out with nothing
salvaged.  The supervisor replaces it with per-shard control:

* **bounded deterministic retries** — a failed attempt requeues with
  exponential backoff (no jitter: retry timing never feeds results);
* **BrokenProcessPool recovery** — a killed worker breaks the whole
  executor, so the supervisor respawns the pool and requeues only the
  in-flight cells, charging the attempt to shards whose worker died;
* **hung-shard reaping** — with a heartbeat deadline set, a shard that
  has gone heartbeat-silent past the deadline has its worker SIGKILLed
  (the recovery-timer idea from T-RACKs, applied to the harness) and
  re-runs under the retry budget;
* **hedged execution** — with a hedge threshold set, a straggler shard
  is duplicated onto an idle worker and the first finisher wins
  (RepFlow's replicate-and-take-first, applied to cells; results are
  bit-identical because cells are deterministic functions of their
  seeds);
* **quarantine** — a shard that exhausts its budget becomes a
  structured :class:`ShardFailure` in its result slot instead of an
  exception, so a sweep degrades to a report that names exactly which
  cells are missing.

Everything is policy-gated: the default :class:`FanoutPolicy` (one
attempt, no deadline, no hedging, no quarantine) reproduces the old
``pool.map`` semantics — first failure propagates.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ShardHungError, WorkerCrashError
from repro.obs import progress as _progress
from repro.parallel.policy import FanoutPolicy, ShardFailure, SupervisorStats
from repro.parallel.pool import (
    WorkerEnv,
    _item_label,
    _pid_alive,
    _pool_task,
    _worker_init,
)

__all__ = ["ShardSupervisor"]


class _Task:
    """Parent-side state for one shard."""

    __slots__ = ("index", "item", "label", "submissions", "failures",
                 "next_eligible", "submitted_at", "last_beat", "pid",
                 "started", "reap_pending", "uncharged_breaks", "hedged",
                 "inflight")

    def __init__(self, index: int, item: Any) -> None:
        self.index = index
        self.item = item
        self.label = _item_label(item)
        self.submissions = 0        # attempt numbers handed to workers
        self.failures = 0           # consumed retry budget
        self.next_eligible = 0.0    # backoff gate (perf_counter clock)
        self.submitted_at = 0.0
        self.last_beat = 0.0
        self.pid = 0
        self.started = False        # start heartbeat seen this attempt
        self.reap_pending = False   # we SIGKILLed its worker
        self.uncharged_breaks = 0   # pool breaks survived without charge
        self.hedged = False
        self.inflight: set = set()  # outstanding futures


def _fail_event(index: int, label: str) -> "_progress.ProgressEvent":
    return _progress.ProgressEvent(index, "fail", label=label)


def _retry_event(index: int, label: str) -> "_progress.ProgressEvent":
    return _progress.ProgressEvent(index, "retry", label=label)


def _crashed(process, pid: int) -> bool:
    """Did this worker die on its own?  A broken executor SIGTERMs its
    surviving workers, so by triage time a bystander may be dead too;
    the exit code of its :class:`multiprocessing.Process` (None while
    alive) tells the casualty from the cleaned-up."""
    if process is None:
        return not _pid_alive(pid)
    return process.exitcode not in (None, -signal.SIGTERM)


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
    """Supervised execution of ``worker`` over ``items`` on a process
    pool; see the module docstring for the failure model.

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
        self._inflight: Dict[Any, tuple] = {}  # future -> (task, is_hedge)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._counter = None
        self._queue = None
        self._pump: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._slot_freed = 0.0  # when a future last completed

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
        self._counter = multiprocessing.Value("i", 0)
        try:
            self._spawn_pool()
            self._pump = threading.Thread(target=self._pump_loop,
                                          name="shard-supervisor-pump",
                                          daemon=True)
            self._pump.start()
            self._loop()
        except BaseException:
            # Ctrl-C, a shard's terminal error: no worker may outlive
            # the fan-out (one mid-write to the result pipe would also
            # keep the executor, and so the interpreter, from exiting).
            self._shutdown(terminate=True)
            raise
        self._shutdown()
        return [self.results[i] for i in range(len(self.items))]

    def _spawn_pool(self) -> None:
        # Heartbeats travel on a SimpleQueue: ``put`` returns with the
        # event written, so a worker that dies right after its start
        # heartbeat (a crash, a kill fault) has still named its pid.
        # And a fresh one per pool: a worker killed mid-``put`` leaks
        # the queue's cross-process write lock, which would silence
        # every later writer.  (The parent only reads.)
        self._queue = multiprocessing.SimpleQueue()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_init,
            initargs=(self.env, self._counter, self._queue))

    def _shutdown(self, terminate: bool = False) -> None:
        self._stop.set()
        if self._pool is not None:
            processes = list(
                (getattr(self._pool, "_processes", None) or {}).values())
            # Hedge losers may still be mid-cell; don't wait for them.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            if terminate:
                _terminate(processes)
        if self._pump is not None:
            self._pump.join(timeout=2.0)
            self._pump = None
        if self._queue is not None:
            self._queue.close()
            self._queue = None

    # ------------------------------------------------------------------
    # Heartbeat intake (pump thread)
    # ------------------------------------------------------------------

    def _pump_loop(self) -> None:
        while not self._stop.is_set():
            try:
                if self._queue.empty():
                    self._stop.wait(0.01)
                    continue
                event = self._queue.get()
            except (EOFError, OSError):  # pragma: no cover - closed
                return
            self._on_event(event)

    def _on_event(self, event) -> None:
        with self._lock:
            task = self.tasks.get(event.shard)
            if task is not None:
                task.last_beat = time.perf_counter()
                if event.kind == "start":
                    task.started = True
                    pid = getattr(event, "pid", 0)
                    if pid:
                        task.pid = pid
        if self.plane is not None:
            self.plane.apply(event)

    def _drain_heartbeats(self, budget: float = 0.25) -> None:
        """Give the pump a moment to absorb straggler events (used
        before pool-break triage reads ``started``/``pid``)."""
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline:
            if self._queue.empty():
                break
            time.sleep(0.01)

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        policy = self.policy
        total = len(self.items)
        while len(self.results) < total:
            now = time.perf_counter()
            self._submit_eligible(now)
            if not self._inflight:
                if not self._pending:  # pragma: no cover - invariant
                    raise RuntimeError("supervisor: no work but not done")
                soonest = min(t.next_eligible for t in self._pending)
                time.sleep(max(0.0, min(policy.check_interval,
                                        soonest - now)) or 0.005)
                continue
            done, _ = wait(list(self._inflight), timeout=policy.check_interval,
                           return_when=FIRST_COMPLETED)
            broken: List[_Task] = []
            pool_broke = False
            if done:
                self._slot_freed = time.perf_counter()
            for future in done:
                task, is_hedge = self._inflight.pop(future)
                task.inflight.discard(future)
                if task.index in self.results:
                    continue  # hedge loser / late duplicate
                try:
                    value = future.result()
                except BrokenProcessPool:
                    pool_broke = True
                    broken.append(task)
                except BaseException as exc:  # worker raised, pickled over
                    self._attempt_failed(task, "exception", exc,
                                         time.perf_counter())
                else:
                    self._record_result(task, value, is_hedge)
            if pool_broke:
                self._recover_pool(broken)
                continue
            now = time.perf_counter()
            self._reap_hung(now)
            self._hedge_stragglers(now)

    def _submit_eligible(self, now: float) -> None:
        still_waiting: List[_Task] = []
        for task in self._pending:
            if task.index in self.results:
                continue
            if task.next_eligible > now:
                still_waiting.append(task)
                continue
            self._submit(task)
        self._pending = still_waiting

    def _submit(self, task: _Task, hedge: bool = False) -> None:
        attempt = task.submissions
        task.submissions += 1
        self.stats.attempts += 1
        if not hedge:
            task.started = False
            task.submitted_at = time.perf_counter()
            task.last_beat = 0.0
        payload = (self.worker, task.index, task.item, attempt)
        future = self._pool.submit(_pool_task, payload)
        task.inflight.add(future)
        self._inflight[future] = (task, hedge)

    def _record_result(self, task: _Task, value: Any, is_hedge: bool) -> None:
        self.results[task.index] = value
        if is_hedge:
            self.stats.hedges_won += 1
        if self.on_result is not None:
            self.on_result(task.index, value)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _attempt_failed(self, task: _Task, kind: str, error: Any,
                        now: float) -> None:
        if task.inflight:
            # A duplicate of this shard is still running; it may yet
            # win.  The failed attempt is only charged when the shard
            # has no other iron in the fire.
            return
        task.failures += 1
        if task.failures >= self.policy.max_attempts:
            self._finalize_failure(task, kind, error)
            return
        self.stats.retries += 1
        task.next_eligible = now + self.policy.backoff(task.failures)
        task.reap_pending = False
        task.hedged = False
        self._pending.append(task)
        if self.plane is not None:
            self.plane.apply(_retry_event(task.index, task.label))

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
                self.plane.apply(_fail_event(task.index, task.label))
            return
        if kind == "crash":
            raise WorkerCrashError(str(failure), shards=[task.index])
        if kind == "hang":
            raise ShardHungError(str(failure), shards=[task.index])
        if isinstance(error, BaseException):
            raise error
        raise WorkerCrashError(str(failure),
                               shards=[task.index])  # pragma: no cover

    def _recover_pool(self, broken: List[_Task]) -> None:
        """A worker died and took the executor with it: respawn, then
        triage every in-flight shard — charge the attempt to shards
        whose worker actually ran (or that we reaped), requeue the
        merely-queued ones for free."""
        self.stats.pool_respawns += 1
        affected = {id(t): t for t in broken}
        for future, (task, _) in list(self._inflight.items()):
            affected[id(task)] = task
        self._inflight.clear()
        workers = dict(getattr(self._pool, "_processes", None) or {})
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        self._drain_heartbeats()
        self._spawn_pool()
        now = time.perf_counter()
        for task in sorted(affected.values(), key=lambda t: t.index):
            task.inflight.clear()
            if task.index in self.results:
                continue
            if task.reap_pending:
                timeout = self.policy.heartbeat_timeout
                task.reap_pending = False
                self._attempt_failed(
                    task, "hang",
                    f"heartbeat-silent for more than {timeout:g}s; "
                    + (f"worker pid {task.pid} reaped" if task.started
                       else "never started, pool recycled"), now)
            elif (task.started and _crashed(workers.get(task.pid),
                                            task.pid)) \
                    or task.uncharged_breaks >= 2:
                self._attempt_failed(
                    task, "crash",
                    "worker process died (BrokenProcessPool)", now)
            elif task.started:
                # Its worker outlived the casualty (an innocent
                # bystander); requeue without charging the budget, but
                # remember the free pass so a lost start event cannot
                # requeue a crashing shard forever.
                task.uncharged_breaks += 1
                task.next_eligible = now
                self._pending.append(task)
            else:
                # Never started: it was queued behind the casualty.
                task.uncharged_breaks += 1
                task.next_eligible = now
                self._pending.append(task)

    # ------------------------------------------------------------------
    # Liveness and hedging
    # ------------------------------------------------------------------

    def _reap_hung(self, now: float) -> None:
        timeout = self.policy.heartbeat_timeout
        if timeout is None:
            return
        for task in self.tasks.values():
            if not task.inflight or task.reap_pending or not task.started:
                continue
            beat = task.last_beat or task.submitted_at
            if now - beat <= timeout or not task.pid:
                continue
            task.reap_pending = True
            self.stats.reaped += 1
            try:
                os.kill(task.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                task.reap_pending = False  # already gone / not ours
        self._reap_start_silent(now, timeout)

    def _reap_start_silent(self, now: float, timeout: float) -> None:
        """A worker that wedges before its start heartbeat (a fork that
        inherited a held lock) leaves no pid to reap and its shard
        in flight forever.  The sign: a worker slot has been free for a
        whole deadline while submitted shards wait unstarted.  Recycle
        the pool and charge the shard at the head of the queue."""
        waiting = [t for t in self.tasks.values()
                   if t.inflight and not t.started and not t.reap_pending]
        busy = {t.pid for t in self.tasks.values()
                if t.inflight and t.started}
        if not waiting or len(busy) >= self.workers:
            return
        head = min(waiting, key=lambda t: (t.submitted_at, t.index))
        if now - max(head.submitted_at, self._slot_freed) <= timeout:
            return
        head.reap_pending = True
        self.stats.reaped += 1
        # The executor keeps its workers in ``_processes`` (pid ->
        # Process); the ones not running a started shard are idle or
        # wedged, and a wedged one would also block interpreter exit.
        for pid in list(getattr(self._pool, "_processes", None) or ()):
            if pid not in busy:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        self._recover_pool([])

    def _hedge_stragglers(self, now: float) -> None:
        threshold = self.policy.hedge_after
        if threshold is None:
            return
        for task in sorted(self.tasks.values(), key=lambda t: t.index):
            if len(self._inflight) >= self.workers:
                return  # no idle workers to hedge onto
            if (not task.inflight or task.hedged or task.reap_pending
                    or task.index in self.results):
                continue
            if now - task.submitted_at <= threshold:
                continue
            task.hedged = True
            self.stats.hedges += 1
            self._submit(task, hedge=True)
