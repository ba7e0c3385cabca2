"""The shard supervisor: fault-tolerant scheduling over worker processes.

``pool.map`` dies with its first casualty: one crashed worker, one
poison cell, or one hung shard aborts the whole fan-out with nothing
salvaged.  The supervisor replaces it with per-shard control.  Each
cell is handed out exactly once — a cell is a deterministic function
of its seed, so a second attempt would fail the same way — and a
failure is charged to the one cell that caused it:

* **crash recovery** — a worker that dies while holding a shard charges
  that shard a ``crash``; only that worker is replaced;
* **hung-shard reaping** — with a heartbeat deadline set, a worker
  silent past the deadline (since its last message, or since the
  hand-off if the shard never started) is SIGKILLed and replaced, and
  its shard charged a ``hang`` (the recovery-timer idea from T-RACKs,
  applied to the harness);
* **quarantine** — a failed shard becomes a structured
  :class:`ShardFailure` in its result slot instead of an exception, so
  a sweep degrades to a report that names exactly which cells are
  missing, and a later ``--resume`` runs just those.

The supervisor starts its workers itself, one duplex pipe each
(:func:`repro.parallel.pool._worker_main`), and hands a shard only to
an idle worker, so a shard is held by at most one worker at a time and
every failure has exactly one owner.  A successful reply's scheduler
tie-break counts fold into this process's, as if the cell had run here.

Everything is policy-gated: the default :class:`FanoutPolicy` (no
deadline, no quarantine) reproduces the old ``pool.map`` semantics —
first failure propagates.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ShardHungError, WorkerCrashError
from repro.parallel.policy import FanoutPolicy, ShardFailure, SupervisorStats
from repro.parallel.pool import WorkerEnv, _item_label, _worker_main
from repro.sim.simulator import fold_tie_break_stats

__all__ = ["ShardSupervisor"]

#: Supervisor wake-up interval (the reaping granularity), seconds.
CHECK_INTERVAL = 0.05


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of
    the error it raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


class _Worker:
    """One worker process, its end of the pipe, and the shard it holds."""

    __slots__ = ("process", "conn", "held", "started", "heard_at")

    def __init__(self, env: Optional[WorkerEnv], shard: int) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child, env, shard),
            name=f"shard-worker-{shard}")
        self.process.start()
        child.close()
        self.held: Optional[int] = None  # the index of the shard it holds
        self.started = False   # its held shard posted its start message
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

    ``on_result(index, value, tie-break counts)`` fires in the parent
    as each shard completes (the journal's crash-safe append hook).  ``results`` may
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
        on_result: Optional[Callable[[int, Any, dict], None]] = None,
        results: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.worker = worker
        self.items = list(items)
        self.workers = workers
        self.policy = policy
        self.env = env
        self.on_result = on_result
        self.results: Dict[int, Any] = dict(results or {})
        self.stats = SupervisorStats(shards=len(self.items))
        self._pending = deque(i for i in range(len(self.items))
                              if i not in self.results)
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
            if worker.held is None:
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
        total = len(self.items)
        while len(self.results) < total:
            self._hand_pending()
            handles = [worker.conn for worker in self._pool] \
                + [worker.process.sentinel for worker in self._pool]
            ready = set(wait(handles, timeout=CHECK_INTERVAL))
            for worker in list(self._pool):
                if worker.conn in ready or worker.process.sentinel in ready:
                    self._service(worker, ready)
            self._reap_hung(time.perf_counter())

    def _hand_pending(self) -> None:
        """Hand pending shards, in item order, to idle workers."""
        while self._pending:
            worker = self._idle_worker()
            if worker is None:
                return
            index = worker.held = self._pending.popleft()
            worker.started, worker.heard_at = False, time.perf_counter()
            try:
                worker.conn.send((self.worker, index, self.items[index]))
            except OSError:
                pass  # it died idle; its sentinel charges the shard a crash

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
        if not isinstance(message, tuple):  # a liveness message
            worker.started = True
            return
        ok, value, ties = message
        index, worker.held = worker.held, None
        if ok:
            fold_tie_break_stats(ties)
            self.results[index] = value
            if self.on_result is not None:
                self.on_result(index, value, ties)
            return
        error, remote_traceback = value
        error.__cause__ = _RemoteTraceback(remote_traceback)
        self._failed(index, "exception", error)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _retire(self, worker: _Worker, kind: str, error: str) -> None:
        """Drop an ended worker (the next hand-off spawns its
        replacement) and charge the shard it held."""
        self._pool.remove(worker)
        worker.conn.close()
        self.stats.pool_respawns += 1
        if worker.held is not None:
            self._failed(worker.held, kind, error)

    def _failed(self, index: int, kind: str, error: Any) -> None:
        """Charge shard ``index`` its one failure: quarantine it, or
        raise."""
        failure = ShardFailure(index, _item_label(self.items[index]), kind,
                               str(error))
        if self.policy.quarantine:
            self.stats.quarantined.append(failure.to_dict())
            # Deliberately NOT routed through on_result: the journal
            # only ever holds real cell results, so a resumed run
            # runs quarantined cells again instead of replaying their
            # tombstones.
            self.results[index] = failure
            return
        if kind == "crash":
            raise WorkerCrashError(str(failure), shards=[index])
        if kind == "hang":
            raise ShardHungError(str(failure), shards=[index])
        raise error

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def _reap_hung(self, now: float) -> None:
        timeout = self.policy.heartbeat_timeout
        if timeout is None:
            return
        for worker in list(self._pool):
            if worker.held is None or now - worker.heard_at <= timeout:
                continue
            worker.process.kill()
            worker.process.join()
            self.stats.reaped += 1
            self._retire(worker, "hang", (
                f"heartbeat-silent for more than {timeout:g}s; "
                + ("" if worker.started else "never started, ")
                + f"worker pid {worker.process.pid} reaped"))
