"""The telemetry hub: one object bundling the whole subsystem.

A :class:`Telemetry` hub owns a metrics registry, a trace recorder
(optionally streaming to a JSONL/CSV sink), and a simulator profiler.
Activating it (``with telemetry.session(...)``) makes every
:class:`~repro.sim.simulator.Simulator` constructed inside the block
pick the hub up automatically, which is how ``--telemetry`` reaches the
seventeen experiment modules without touching their signatures.

On close the hub flushes sinks and writes ``metrics.json`` (and
``profile.json``, kept separate because wall-clock timings are not
deterministic) into the output directory.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Union

from repro.sim.trace import TraceRecorder
from repro.telemetry import context as _context
from repro.telemetry.export import CsvTraceSink, JsonlTraceSink, TraceSink
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import SimProfiler
from repro.telemetry.timeline import FlowTimeline, build_timelines, \
    render_timelines

__all__ = ["Telemetry", "parse_kinds", "ring_recorder", "session"]

#: Default in-memory record bound when a hub keeps records for
#: timelines; the streaming sink still sees every record.
DEFAULT_MAX_RECORDS = 200_000


def ring_recorder() -> TraceRecorder:
    """The recorder a bare observer session brings: enabled, unfiltered,
    ring-bounded like a hub's."""
    return TraceRecorder(max_records=DEFAULT_MAX_RECORDS)


def parse_kinds(kinds: Union[str, Sequence[str], None]) -> Optional[List[str]]:
    """Normalize a trace-kind filter to a list of prefixes (or None).

    Accepts the comma-separated form users type on a command line
    (``"flow,halfback,sender"``), an already-split sequence, or None.
    Empty entries and surrounding whitespace are dropped; an empty
    result means "no filtering" (None), so ``--telemetry-kinds ""``
    behaves like omitting the flag.
    """
    if kinds is None:
        return None
    if isinstance(kinds, str):
        parts = kinds.split(",")
    else:
        parts = list(kinds)
    cleaned = [part.strip() for part in parts if part and part.strip()]
    return cleaned or None


class Telemetry:
    """A complete observability session.

    Parameters
    ----------
    out_dir:
        Directory for streamed exports (created on demand).  None keeps
        everything in memory.
    trace_format:
        ``"jsonl"`` (default), ``"csv"``, or None for no streaming sink.
    kinds:
        Optional whitelist of trace-kind prefixes (cuts volume on big
        runs) — a sequence like ``["halfback", "sender", "flow"]`` or
        the comma-separated string a CLI flag carries
        (``"halfback,sender,flow"``); see :func:`parse_kinds`.
    max_records:
        In-memory ring-buffer bound for the trace recorder; the sink is
        unaffected.  None uses :data:`DEFAULT_MAX_RECORDS`.
    profile:
        Attach a :class:`SimProfiler` to every simulator in the session.
    shard:
        Optional shard id for hubs living inside pool workers.  Suffixes
        every exported filename (``trace-shard3.jsonl``,
        ``metrics-shard3.json`` ...) so parallel workers sharing one
        output directory never clobber each other.
    """

    def __init__(
        self,
        out_dir: Optional[str] = None,
        trace_format: Optional[str] = "jsonl",
        kinds: Union[str, Sequence[str], None] = None,
        max_records: Optional[int] = None,
        profile: bool = True,
        shard: Optional[int] = None,
    ) -> None:
        self.out_dir = str(out_dir) if out_dir is not None else None
        self.shard = shard
        self.metrics = MetricsRegistry()
        self.profiler: Optional[SimProfiler] = SimProfiler() if profile else None
        self.sink: Optional[TraceSink] = None
        if self.out_dir is not None and trace_format is not None:
            if trace_format == "jsonl":
                self.sink = JsonlTraceSink(
                    os.path.join(self.out_dir,
                                 self._shard_name("trace", "jsonl")))
            elif trace_format == "csv":
                self.sink = CsvTraceSink(
                    os.path.join(self.out_dir,
                                 self._shard_name("trace", "csv")))
            else:
                raise ValueError(
                    f"unknown trace format {trace_format!r} "
                    "(expected 'jsonl', 'csv', or None)")
        bound = max_records if max_records is not None else DEFAULT_MAX_RECORDS
        self.trace = TraceRecorder(
            enabled=True,
            kinds=parse_kinds(kinds),
            max_records=bound,
            sink=self.sink,
        )
        self._closed = False

    def _shard_name(self, stem: str, ext: str) -> str:
        """``trace.jsonl`` for the parent, ``trace-shard3.jsonl`` for
        shard 3."""
        if self.shard is None:
            return f"{stem}.{ext}"
        return f"{stem}-shard{self.shard}.{ext}"

    @property
    def dropped_records(self) -> int:
        """Records the in-memory ring buffer evicted (the streaming
        sink, when configured, still saw every one)."""
        return self.trace.dropped_records

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def timelines(self, flows: Optional[Sequence[int]] = None
                  ) -> Dict[int, FlowTimeline]:
        """Per-flow timelines assembled from the in-memory trace."""
        return build_timelines(self.trace, flows=flows)

    def export_paths(self) -> List[str]:
        """Every file this session has written so far."""
        paths: List[str] = []
        if self.sink is not None:
            paths.append(self.sink.path)
        if self.out_dir is not None:
            for stem in ("metrics", "profile"):
                path = os.path.join(self.out_dir,
                                    self._shard_name(stem, "json"))
                if os.path.exists(path):
                    paths.append(path)
        return paths

    def summary(self, max_flows: int = 4, max_events: int = 40) -> str:
        """The ``--telemetry`` report: metrics, timelines, profile, files."""
        parts = [self.metrics.render(title="metrics snapshot")]
        parts.append(render_timelines(self.timelines(), max_flows=max_flows,
                                      max_events=max_events))
        if self.trace.dropped_records:
            parts.append(f"trace ring buffer dropped "
                         f"{self.trace.dropped_records} records "
                         f"(oldest first); the streamed export is complete")
        else:
            parts.append("trace ring buffer dropped 0 records")
        if self.profiler is not None:
            parts.append(self.profiler.report())
        paths = self.export_paths()
        if paths:
            parts.append("exports:\n" + "\n".join(f"  {p}" for p in paths))
        return "\n\n".join(parts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Flush the streaming sink (if any)."""
        if self.sink is not None and not self.sink.closed:
            self.sink.flush()

    def close(self) -> None:
        """Flush/close the sink and write metrics/profile JSON files."""
        if self._closed:
            return
        self._closed = True
        if self.sink is not None:
            self.sink.close()
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            metrics_doc = self.metrics.snapshot()
            metrics_doc["trace_dropped_records"] = self.trace.dropped_records
            if self.shard is not None:
                metrics_doc["shard"] = self.shard
            with open(os.path.join(self.out_dir,
                                   self._shard_name("metrics", "json")), "w",
                      encoding="utf-8") as fh:
                json.dump(metrics_doc, fh, sort_keys=True,
                          indent=2, default=str)
                fh.write("\n")
            if self.profiler is not None:
                with open(os.path.join(self.out_dir,
                                       self._shard_name("profile", "json")),
                          "w", encoding="utf-8") as fh:
                    json.dump(self.profiler.snapshot(), fh, sort_keys=True,
                              indent=2, default=str)
                    fh.write("\n")

    def __enter__(self) -> "Telemetry":
        self._scope = _context.activated(self)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._scope.__exit__(*exc)
        self.close()


def session(**kwargs) -> Telemetry:
    """Create a :class:`Telemetry` hub; as a context manager it is
    active inside the block and closed on exit.

    ::

        with telemetry.session(out_dir="out") as hub:
            result = fig06_planetlab_fct.run(...)
        print(hub.summary())
    """
    return Telemetry(**kwargs)
