"""The ambient run context: every "what is active right now?" in one object.

Experiments build many :class:`~repro.sim.simulator.Simulator` instances
deep inside their `run()` functions; threading a telemetry hub, a chaos
profile, a supervision policy ... through every one of those signatures
would couple all 17 experiment modules to every plane.  Instead a CLI
(or a test) sets a slot of :data:`ambient` for a ``with`` block through
:func:`scope`, and the code that needs the value reads the slot.  The
owning modules (``chaos.context``, ``chaos.procfault``,
``parallel.policy``, ``parallel.pool``, ``sim.scheduler``,
``obs.critical``) expose their slot under the names
they always had — ``current_profile()``, ``supervision(policy)`` ... —
as one-line reads of, or ``scope(...)`` over, this object; DESIGN.md
("Ambient state") has the slot table.

:func:`attached` is the one way an observer reaches a run's trace
stream; the audit and breakdown sessions are payload plus a call to
it.

This module is import-light on purpose (no repro imports; every slot is
held duck-typed) — the simulator imports it, and the telemetry package
imports the simulator's trace module, so this file is the cycle-breaker.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator

__all__ = ["RunContext", "ambient", "scope", "enter", "attached", "describe",
           "current_hub", "activated", "active_session", "take_breakdown",
           "alive"]


class RunContext:
    """The ambient slots of a run (None / empty = off)."""

    __slots__ = ("hub", "attached", "audit", "breakdown", "reporter", "chaos",
                 "procfault", "worker_env", "policy", "journal", "fanout",
                 "tiebreak_salt")

    def __init__(self) -> None:
        #: Telemetry hub (``trace`` / ``metrics`` / ``profiler``) every
        #: Simulator built now picks up.
        self.hub = None
        #: ``(name, trace, observer, kinds)`` of each live
        #: :func:`attached` subscription, outermost first.
        self.attached: tuple = ()
        #: Innermost ``AuditSession`` / ``BreakdownSession``: it owns
        #: the events and flows of the run now.
        self.audit = None
        self.breakdown = None
        #: A fan-out worker's throttled liveness ping while it runs a
        #: shard (see :func:`alive`); None in the parent and serially.
        self.reporter = None
        #: Chaos profile applied to every access network built now.
        self.chaos = None
        #: Process-fault plan consulted by the fan-out's task wrapper.
        self.procfault = None
        #: ``WorkerEnv`` worker processes must mirror.
        self.worker_env = None
        #: Supervision policy (the keyword fields of a ``FanoutPolicy``)
        #: and cell journal of every ``fanout_map``.
        self.policy = None
        self.journal = None
        #: Run-level supervision counters every ``fanout_map`` merges
        #: into (a ``SupervisorStats``; None = no fan-out since reset).
        self.fanout = None
        #: Tie-break permutation salt of Simulators built now.
        self.tiebreak_salt = None


#: The process's one run context.
ambient = RunContext()


def enter(**slots: Any) -> Dict[str, Any]:
    """Set ``slots`` and return their previous values.

    Unscoped: nothing restores.  :func:`scope` is this plus the restore.
    """
    previous = {name: getattr(ambient, name) for name in slots}
    for name, value in slots.items():
        setattr(ambient, name, value)
    return previous


@contextmanager
def scope(**slots: Any) -> Iterator[Any]:
    """Set ``slots`` for a ``with`` block and put back what was there.

    Yields the value set when exactly one slot is given (what each
    owning module's manager always yielded), else None.
    """
    previous = enter(**slots)
    try:
        yield next(iter(slots.values())) if len(slots) == 1 else None
    finally:
        enter(**previous)


# ----------------------------------------------------------------------
# Telemetry hub and the trace stream
# ----------------------------------------------------------------------


def current_hub():
    """The active telemetry hub, or None when telemetry is off."""
    return ambient.hub


def activated(hub):
    """Activate ``hub`` for the duration of a ``with`` block."""
    return scope(hub=hub)


@contextmanager
def attached(name: str, observer: Callable, kinds,
             fresh_trace: Callable[[], Any], session=None) -> Iterator[Any]:
    """Subscribe ``observer`` to the run's trace stream for a block.

    With an *enabled* recorder ambient (``--telemetry``, or an outer
    session's) the observer joins it and the hub stays; otherwise
    ``fresh_trace()`` makes one, carried by a stand-in hub, and its ring
    is cleared on exit (the run's topology, a link <-> node cycle, would
    keep it reachable until a full collection).  ``kinds`` is what the
    observer consumes (see ``TraceRecorder.subscribe``).  Yields the
    recorder.

    The innermost enclosing subscription of the same ``name`` is
    suspended until the block exits (unless it has left first), so
    every event inside is this observer's alone (DESIGN.md §6, nested
    observer sessions); a ``session`` fills the ``name`` slot.
    """
    hub = ambient.hub
    trace = hub.trace if hub is not None else None
    own = trace is None or not trace.enabled
    if own:
        # A stand-in hub: our recorder, and whatever metrics/profiler
        # the hub it displaces was handing out.
        trace = fresh_trace()
        hub = SimpleNamespace(trace=trace,
                              metrics=getattr(hub, "metrics", None),
                              profiler=getattr(hub, "profiler", None))
    outer = next((entry for entry in reversed(ambient.attached)
                  if entry[0] == name), None)
    trace.subscribe(observer, kinds)
    if outer is not None:
        outer[1].unsubscribe(outer[2])
    slots = {} if session is None else {name: session}
    previous = enter(hub=hub, **slots, attached=ambient.attached
                     + ((name, trace, observer, kinds),))
    try:
        yield trace
    finally:
        if outer is not None and outer in ambient.attached:
            outer[1].subscribe(outer[2], outer[3])
        enter(**previous)
        trace.unsubscribe(observer)
        if own:
            trace.clear()


def describe() -> Dict[str, Any]:
    """What is observing and steering the run right now (the manifest's
    ``observers`` section; an absent key means off)."""
    doc: Dict[str, Any] = {entry[0]: True for entry in ambient.attached}
    env = ambient.worker_env
    if env is not None and env.telemetry_dir is not None:
        doc["telemetry"] = {"dir": env.telemetry_dir,
                            "format": env.telemetry_format,
                            "kinds": env.telemetry_kinds}
    if ambient.chaos is not None:
        doc["chaos"] = ambient.chaos.spec
    if ambient.procfault is not None:
        doc["procfault"] = ambient.procfault.spec
    if ambient.tiebreak_salt is not None:
        doc["tiebreak_salt"] = ambient.tiebreak_salt
    return doc


# ----------------------------------------------------------------------
# Breakdown session (entered and left by repro.obs.critical)
# ----------------------------------------------------------------------


def active_session():
    """The innermost active ``BreakdownSession`` (None when off)."""
    return ambient.breakdown


def take_breakdown(flow_id: int):
    """Collect (and forget) the finished breakdown for ``flow_id``.

    The runner calls this right after emitting ``flow.complete`` — the
    span builder is an observer on the same recorder, so by then the
    breakdown is final.  One ``is None`` check when no session is
    active: the ``--breakdown``-off hot path stays that cheap.
    """
    session = ambient.breakdown
    if session is None:
        return None
    return session.pending.pop(flow_id, None)


# ----------------------------------------------------------------------
# Shard liveness (the ``reporter`` slot, set by repro.parallel.pool)
# ----------------------------------------------------------------------


def alive() -> None:
    """Tell the shard supervisor this worker is still running its shard.

    The slot's callable posts at most one message per
    ``repro.parallel.pool.ALIVE_INTERVAL``; with no reporter (the
    parent, a serial run) this is one attribute check, so runners call
    it unconditionally.
    """
    ping = ambient.reporter
    if ping is not None:
        ping()
