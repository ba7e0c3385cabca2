"""The ambient telemetry session.

Experiments build many :class:`~repro.sim.simulator.Simulator` instances
deep inside their `run()` functions; threading a telemetry object
through every one of those signatures would couple all 17 experiment
modules to observability.  Instead the CLI (or a test) *activates* one
:class:`~repro.telemetry.hub.Telemetry` hub here, and every Simulator
constructed while it is active picks up the hub's trace recorder,
metrics registry, and profiler automatically.

The two other ambient registries the plain run path consults live here
too — the breakdown-session stack (:mod:`repro.obs.critical`) and the
progress plane / shard reporter (:mod:`repro.obs.progress`) — so that
asking "is one active?" never imports the plane that would answer.  The
owning modules re-export these names; sessions, planes and reporters
are held duck-typed.

This module is import-light on purpose (no repro imports) — the
simulator imports it, and the telemetry package imports the simulator's
trace module, so this file is the cycle-breaker.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["current_hub", "activate", "deactivate", "activated",
           "active_session", "take_breakdown", "current_plane",
           "activate_plane", "deactivate_plane", "current_reporter",
           "reporting", "heartbeat", "flow_completed"]

_active = None


def current_hub():
    """The active telemetry hub, or None when telemetry is off."""
    return _active


def activate(hub) -> None:
    """Make ``hub`` the ambient telemetry session."""
    global _active
    _active = hub


def deactivate(hub=None) -> None:
    """Clear the ambient session (only if ``hub`` still owns it)."""
    global _active
    if hub is None or _active is hub:
        _active = None


@contextmanager
def activated(hub) -> Iterator[Optional[object]]:
    """Activate ``hub`` for the duration of a ``with`` block."""
    global _active
    previous = _active
    _active = hub
    try:
        yield hub
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Breakdown sessions (entered and left by repro.obs.critical)
# ----------------------------------------------------------------------

#: Innermost-last stack of active sessions (worker-local cell sessions
#: nest inside a CLI-level run session; the innermost one owns flows
#: completing while it is active).
_sessions: list = []


def active_session():
    """The innermost active ``BreakdownSession`` (None when off)."""
    return _sessions[-1] if _sessions else None


def take_breakdown(flow_id: int):
    """Collect (and forget) the finished breakdown for ``flow_id``.

    The runner calls this right after emitting ``flow.complete`` — the
    span builder is an observer on the same recorder, so by then the
    breakdown is final.  One falsy check when no session is active: the
    ``--breakdown``-off hot path stays a list truthiness test.
    """
    if not _sessions:
        return None
    return _sessions[-1].pending.pop(flow_id, None)


# ----------------------------------------------------------------------
# Progress plane (parent process) and shard reporter (worker side)
# ----------------------------------------------------------------------

_active_plane = None
_active_reporter = None


def current_plane():
    """The ambient progress plane, or None."""
    return _active_plane


def activate_plane(plane_obj) -> None:
    """Make ``plane_obj`` the ambient progress plane."""
    global _active_plane
    _active_plane = plane_obj


def deactivate_plane(plane_obj=None) -> None:
    """Clear the ambient plane (only if ``plane_obj`` still owns it)."""
    global _active_plane
    if plane_obj is None or _active_plane is plane_obj:
        _active_plane = None


def current_reporter():
    """The shard reporter of the currently-executing shard, or None."""
    return _active_reporter


@contextmanager
def reporting(reporter) -> Iterator[None]:
    """Make ``reporter`` ambient while one shard executes."""
    global _active_reporter
    previous = _active_reporter
    _active_reporter = reporter
    try:
        yield
    finally:
        _active_reporter = previous


def heartbeat(flows_done: Optional[int] = None,
              events: Optional[int] = None) -> None:
    """Post a throttled heartbeat from anywhere inside a shard.

    No-op (one attribute check) when no progress plane is active, so
    runners can call it unconditionally.
    """
    reporter = _active_reporter
    if reporter is not None:
        reporter.update(flows_done=flows_done, events=events)


def flow_completed(events: Optional[int] = None) -> None:
    """Count one finished flow on the ambient shard reporter (no-op
    without one); the hook experiment runners call per completion."""
    reporter = _active_reporter
    if reporter is not None:
        reporter.flow_completed(events=events)
