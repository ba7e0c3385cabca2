"""Simulator profiling: where does the wall-clock go?

A :class:`SimProfiler` attached to a simulator records, per callback
kind, how many events fired and how much wall-clock time they consumed,
plus heap-depth extremes and an overall events/second rate.  It answers
the question every performance PR starts with: *which* callbacks are
hot, and is the event queue deep enough to matter.

Wall-clock readings never touch simulated results — the profiler is
pure measurement, kept out of trace exports so telemetry stays
deterministic.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

__all__ = ["CallbackStats", "SimProfiler"]


class CallbackStats:
    """Count and cumulative wall-clock for one callback kind."""

    __slots__ = ("count", "wall")

    def __init__(self) -> None:
        self.count = 0
        self.wall = 0.0

    @property
    def mean_us(self) -> float:
        """Mean wall-clock per firing, in microseconds."""
        return (self.wall / self.count) * 1e6 if self.count else 0.0


def callback_name(callback) -> str:
    """Stable display name for an event callback."""
    name = getattr(callback, "__qualname__", None)
    if name is not None:
        return name
    return type(callback).__name__


class SimProfiler:
    """Accumulates per-callback-kind timing across simulator runs.

    Parameters
    ----------
    clock:
        Wall-clock source (monkeypatchable for tests); defaults to
        :func:`time.perf_counter`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.per_kind: Dict[str, CallbackStats] = {}
        #: Total events timed.
        self.events = 0
        #: Total wall-clock seconds inside event callbacks.
        self.wall_in_events = 0.0
        #: Total wall-clock seconds inside Simulator.run (includes queue
        #: management overhead, so >= wall_in_events).
        self.wall_in_runs = 0.0
        self.max_heap_depth = 0
        self._run_started: Optional[float] = None
        self._names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Hooks called by Simulator
    # ------------------------------------------------------------------

    def begin_run(self) -> None:
        """Mark the start of one ``Simulator.run`` call."""
        self._run_started = self.clock()

    def end_run(self) -> None:
        """Mark the end of the matching ``Simulator.run`` call."""
        if self._run_started is not None:
            self.wall_in_runs += self.clock() - self._run_started
            self._run_started = None

    def on_event(self, callback, elapsed: float, heap_depth: int) -> None:
        """Account one fired event of ``callback`` taking ``elapsed`` s."""
        key = id(getattr(callback, "__func__", callback))
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = callback_name(callback)
        stats = self.per_kind.get(name)
        if stats is None:
            stats = self.per_kind[name] = CallbackStats()
        stats.count += 1
        stats.wall += elapsed
        self.events += 1
        self.wall_in_events += elapsed
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def events_per_second(self) -> float:
        """Events processed per wall-clock second of ``run`` time."""
        if self.wall_in_runs <= 0.0:
            return 0.0
        return self.events / self.wall_in_runs

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of everything measured."""
        return {
            "events": self.events,
            "wall_in_events": self.wall_in_events,
            "wall_in_runs": self.wall_in_runs,
            "events_per_second": self.events_per_second,
            "max_heap_depth": self.max_heap_depth,
            "per_kind": {
                name: {"count": s.count, "wall": s.wall, "mean_us": s.mean_us}
                for name, s in sorted(self.per_kind.items())
            },
        }

    def report(self, top: int = 12) -> str:
        """Human-readable profile, hottest callbacks first."""
        lines = [
            "simulator profile",
            f"  events: {self.events}  "
            f"({self.events_per_second:,.0f} events/s, "
            f"run wall {self.wall_in_runs * 1e3:.1f}ms, "
            f"max heap depth {self.max_heap_depth})",
        ]
        ranked = sorted(self.per_kind.items(),
                        key=lambda kv: kv[1].wall, reverse=True)
        if ranked:
            width = max(len(name) for name, _ in ranked[:top])
            lines.append(f"  {'callback':<{width}s} {'count':>9s} "
                         f"{'wall ms':>9s} {'mean us':>8s}")
            for name, stats in ranked[:top]:
                lines.append(
                    f"  {name:<{width}s} {stats.count:>9d} "
                    f"{stats.wall * 1e3:>9.2f} {stats.mean_us:>8.2f}"
                )
            if len(ranked) > top:
                lines.append(f"  ... and {len(ranked) - top} more callback kinds")
        return "\n".join(lines)

    def clear(self) -> None:
        """Reset all accumulated measurements."""
        self.per_kind.clear()
        self._names.clear()
        self.events = 0
        self.wall_in_events = 0.0
        self.wall_in_runs = 0.0
        self.max_heap_depth = 0
        self._run_started = None
