"""Worker-process plumbing for the shard fan-out.

Everything in this module crosses (or prepares to cross) the process
boundary: the picklable :class:`WorkerEnv` that workers mirror,
:func:`_worker_main`, the body of every supervised worker process,
:func:`_run_shard`, the per-item body (shard heartbeats, the ambient
process-fault injector, the worker call) that workers and the serial
fan-out share, and :func:`_observed`, the worker wrapper that gives
each cell its own audit and breakdown sessions.

The supervisor (:mod:`repro.parallel.supervisor`) owns scheduling;
this module owns what runs *inside* a worker.
"""

from __future__ import annotations

import signal
import traceback
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
    in its parent process and every worker re-creates (run-context
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
        parent's stack closes with the run, a worker's when the
        supervisor dismisses it.
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
    """Declare the environment workers must mirror for a block."""
    return scope(worker_env=env)


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
    fan-out and of every worker process.

    With a progress channel (``post``: the plane's ``apply`` in-process,
    the worker pipe's ``send`` in a worker) the shard's ``start``
    heartbeat is posted *before* the ambient process-fault plan fires,
    so a hang fault is a started-then-silent shard, exactly the failure
    the heartbeat deadline exists to catch.
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


def _observed(observe: dict, worker, item):
    """``worker(item)`` inside the cell's own session of each observer
    in ``observe`` — ``{"audit": the run's bundle directory,
    "breakdown": keep_spans}``, entered in that order — each suspending
    its enclosing one: ``(value, *their shipped())``.  A cell that
    raises ships nothing; its audit's frozen (crash) bundle is written
    into the run's directory instead."""
    audit = breakdown = None
    try:
        with ExitStack() as stack:
            if "audit" in observe:
                from repro.audit.session import AuditSession

                audit = stack.enter_context(AuditSession())
            if "breakdown" in observe:
                from repro.obs.critical import BreakdownSession

                breakdown = stack.enter_context(BreakdownSession(
                    keep_spans=observe["breakdown"]))
            value = worker(item)
    except BaseException:
        bundle = audit and audit.auditor.recorder.bundle
        if bundle and observe["audit"] is not None:
            from repro.audit.recorder import write_bundle

            write_bundle(observe["audit"], bundle)
        raise
    return (value, *(session.shipped() for session in (audit, breakdown)
                     if session is not None))


def _worker_main(conn, env: Optional[WorkerEnv], shard: int) -> None:
    """The body of one supervised worker process.

    Mirrors ``env`` (telemetry files suffixed ``-shard<shard>``), then
    runs each ``(worker, index, item, attempt)`` the parent sends through
    :func:`_run_shard`, posting heartbeats on the same pipe, and replies
    ``(True, value, tie-break counts)`` or ``(False, (error, traceback
    text), None)``.  ``None`` dismisses it: its sessions close the
    normal way, which writes ``metrics-shard<shard>.json``.
    """
    from repro.sim.simulator import reset_tie_break_stats, tie_break_stats

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns teardown
    with ExitStack() as stack:
        hub = None
        if env is not None and not env.empty:
            hub, _ = env.enter(stack, shard=shard)
        for task in iter(conn.recv, None):
            reset_tie_break_stats()  # the reply carries this cell's alone
            try:
                value = _run_shard(*task, post=conn.send)
                reply = (True, value, tie_break_stats())
            except Exception as exc:
                reply = (False, (exc, traceback.format_exc()), None)
            if hub is not None:
                # Keep the shard trace durable even if this worker is
                # reaped later; per-item flushes are noise next to a cell.
                hub.flush()
            try:
                conn.send(reply)
            except Exception as exc:  # an unpicklable value or error
                conn.send((False, (exc, traceback.format_exc()), None))
