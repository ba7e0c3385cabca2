"""Worker-process plumbing for the shard fan-out.

Everything in this module crosses (or prepares to cross) the process
boundary: the picklable :class:`WorkerEnv` that pool workers mirror,
the pool initializer that re-enters the parent's observability sessions
inside each worker, and :func:`_run_shard`, the per-item body (shard
heartbeats, the ambient process-fault injector, the worker call) that
pool tasks and the serial fan-out share.

The supervisor (:mod:`repro.parallel.supervisor`) owns scheduling;
this module owns what runs *inside* a worker.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Optional

from repro.telemetry.context import ambient, reporting, scope

__all__ = ["WorkerEnv", "current_worker_env", "resolve_jobs", "worker_env"]


def resolve_jobs(jobs: int, n_items: int) -> int:
    """Effective worker count: never more workers than items, never < 1."""
    return max(1, min(jobs, n_items))


# ----------------------------------------------------------------------
# Worker environment propagation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerEnv:
    """Picklable description of the observability sessions a run enters
    in its parent process and every pool worker re-creates (run-context
    slots don't cross the process boundary)."""

    #: Telemetry export directory (per-worker files are shard-suffixed).
    telemetry_dir: Optional[str] = None
    telemetry_format: str = "jsonl"
    telemetry_kinds: Optional[str] = None
    #: ``PROFILE[:seed]`` chaos spec — deterministic, so re-parsing in
    #: the worker reproduces the parent's profile exactly.
    chaos_spec: Optional[str] = None
    #: Process-fault injection spec (``kill@2,hang@5/20`` ...) —
    #: deterministic schedule, re-parsed per worker like the chaos spec.
    procfault_spec: Optional[str] = None

    @property
    def empty(self) -> bool:
        return (self.telemetry_dir is None and self.chaos_spec is None
                and self.procfault_spec is None)

    def enter(self, stack: ExitStack, shard: Optional[int] = None):
        """Enter the described sessions on ``stack`` — telemetry hub
        (files shard-suffixed when ``shard`` is given), chaos profile,
        process-fault plan — and declare this env for the fan-outs
        below.  Returns ``(hub, profile)``, None for what is off.  The
        parent's stack closes with the run; a worker's never does.
        """
        hub = profile = None
        if self.telemetry_dir is not None:
            from repro.telemetry.hub import session

            # The session API accepts the raw comma-separated kinds
            # value (see telemetry.parse_kinds).
            hub = stack.enter_context(session(
                out_dir=self.telemetry_dir,
                trace_format=self.telemetry_format,
                kinds=self.telemetry_kinds, shard=shard))
        if self.chaos_spec is not None:
            from repro.chaos.profiles import session as chaos_session

            profile = stack.enter_context(chaos_session(self.chaos_spec))
        if self.procfault_spec is not None:
            from repro.chaos import procfault

            stack.enter_context(procfault.activated(
                procfault.parse_procfault(self.procfault_spec)))
        stack.enter_context(worker_env(self))
        return hub, profile


def current_worker_env() -> Optional[WorkerEnv]:
    """The ambient worker environment, or None."""
    return ambient.worker_env


def worker_env(env: Optional[WorkerEnv]):
    """Declare the environment pool workers must mirror for a block."""
    return scope(worker_env=env)


# Worker-process globals, set once per worker by _worker_init.  The
# stack holds the worker's sessions: entered once, never left.
_worker_queue = None
_worker_hub = None
_worker_sessions = ExitStack()


def _worker_init(env: Optional[WorkerEnv], counter, queue) -> None:
    """Pool initializer: runs once in each worker process."""
    global _worker_queue, _worker_hub
    _worker_queue = queue
    if env is None or env.empty:
        return
    with counter.get_lock():
        shard = counter.value
        counter.value += 1
    _worker_hub, _ = env.enter(_worker_sessions, shard=shard)
    if _worker_hub is not None:
        from multiprocessing.util import Finalize

        # Pool workers exit via multiprocessing's bootstrap (atexit
        # handlers never run there); Finalize hooks do, so the sink is
        # flushed and metrics-shard<N>.json written on clean shutdown.
        Finalize(_worker_hub, _worker_hub.close, exitpriority=10)


def _item_label(item) -> str:
    """A short human label for the shard table (best effort)."""
    if isinstance(item, tuple):
        parts = [str(part) for part in item if isinstance(part, (str, int))]
        label = ":".join(parts[:3])
    else:
        label = str(item)
    return label[:48]


def _run_shard(worker, index: int, item, attempt: int,
               post: Optional[Callable] = None):
    """One attempt at one shard — the per-item body of the serial
    fan-out and of every pool task.

    With a progress channel (``post``: the plane's ``apply`` in-process,
    the heartbeat queue's ``put`` in a worker) the shard's ``start``
    heartbeat — carrying this process's pid, the supervisor's reaping
    handle — is posted *before* the ambient process-fault plan fires, so
    a hang fault is a started-then-silent shard, exactly the failure the
    heartbeat deadline exists to catch.
    """
    reporter = None
    if post is not None:
        from repro.obs.progress import ShardReporter

        reporter = ShardReporter(index, post)
        reporter.started(label=_item_label(item))
    plan = ambient.procfault
    if plan is not None:
        plan.inject(index, attempt)
    if reporter is None:
        return worker(item)
    with reporting(reporter):
        result = worker(item)
    reporter.done()
    return result


def _pool_task(payload):
    """Picklable per-item wrapper running inside a pool worker."""
    worker, index, item, attempt = payload
    result = _run_shard(worker, index, item, attempt,
                        None if _worker_queue is None else _worker_queue.put)
    if _worker_hub is not None:
        # Keep the shard trace file durable even if the pool is torn
        # down abruptly; per-item flushes are noise next to a cell.
        _worker_hub.flush()
    return result


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a worker pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - not our child
        return True
    return True
