"""Exception hierarchy for the Halfback reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """A violation of simulator invariants (e.g. scheduling into the past)."""


class StallError(SimulationError):
    """The simulator stopped making progress (a zero-delay event loop).

    Raised by the :class:`~repro.sim.simulator.Simulator` watchdog when
    more than ``stall_event_limit`` events fire without the clock
    advancing.  Carries enough state to diagnose the cycle offline:
    ``time`` (the instant the clock froze at), ``events_at_instant``
    (how many events fired there), and ``pending`` — a rendered dump of
    the next scheduled events, which names the callbacks feeding the
    loop.
    """

    def __init__(self, time: float, events_at_instant: int,
                 pending: "list[str]") -> None:
        self.time = time
        self.events_at_instant = events_at_instant
        self.pending = list(pending)
        lines = [
            f"simulator stalled at t={time:.9f}: {events_at_instant} events "
            f"fired without the clock advancing",
            "next pending events:",
        ]
        lines.extend(f"  {entry}" for entry in self.pending)
        if not self.pending:
            lines.append("  (event queue empty)")
        super().__init__("\n".join(lines))


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent component configuration."""


class TopologyError(ReproError):
    """An invalid network topology operation (unknown node, no route...)."""


class TransportError(ReproError):
    """A violation of transport-layer invariants (bad segment, bad state)."""


class ProtocolError(TransportError):
    """A protocol-specific failure (unknown protocol name, bad hook use)."""


class WorkloadError(ReproError):
    """An invalid workload specification (bad distribution, bad rate)."""


class ChaosError(ReproError):
    """An invalid chaos impairment or profile specification."""


class ProcFaultError(ChaosError):
    """An injected harness process fault (the ``raise`` fault kind).

    Raised *inside a shard* by the :mod:`repro.chaos.procfault`
    injector; the shard supervisor treats it like any other worker
    exception (quarantine or propagate).
    """


class ParallelError(ReproError):
    """A failure in the process-parallel shard fan-out."""


class WorkerCrashError(ParallelError):
    """A pool worker died (SIGKILL / hard crash) while running a shard.
    ``shards`` names the cell indices lost."""

    def __init__(self, message: str, shards: "list[int]" = ()) -> None:
        self.shards = list(shards)
        super().__init__(message)


class ShardHungError(ParallelError):
    """A shard went heartbeat-silent past its deadline and was reaped.
    ``shards`` names the cell indices lost."""

    def __init__(self, message: str, shards: "list[int]" = ()) -> None:
        self.shards = list(shards)
        super().__init__(message)


class JournalError(ReproError):
    """An invalid or unusable cell-result journal."""


class ExperimentError(ReproError):
    """A failure while assembling or running an experiment scenario."""
