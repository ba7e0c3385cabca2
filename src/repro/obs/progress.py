"""The live multi-shard progress plane.

Long fan-outs (`--jobs N` sweeps, the million-flow roadmap) were black
boxes: nothing printed until every worker finished.  This module gives
each shard a heartbeat channel and the parent a live, exportable view:

* worker side — a :class:`ShardReporter` posts ``start`` / ``update`` /
  ``done`` events (flows done, simulator events, wall clock).  Updates
  are wall-clock throttled so a million-flow shard costs a few queue
  messages per second, not one per flow.  Deep code reaches the
  ambient reporter through :func:`heartbeat` without signature changes
  (the same pattern as the telemetry/chaos contexts).
* parent side — a :class:`ProgressPlane` aggregates shard states,
  renders a refreshing status line/table to a terminal, and exports the
  same state as Prometheus text (``progress.prom``) plus periodic JSONL
  snapshots (``progress.jsonl``) for post-hoc inspection of long runs.
  Both are published atomically (temp file + ``os.replace``) so
  concurrent readers never observe torn output.

The same heartbeats double as the *liveness* signal for the shard
supervisor (:mod:`repro.parallel.supervisor`): a worker whose heartbeats
go silent past the policy deadline gets reaped and its shard retried,
and supervision verdicts surface as ``retry``/``fail`` events.

The plane is wall-clock-driven and advisory by design: it never touches
simulation state, so enabling it cannot change a result or fingerprint.
:func:`repro.parallel.fanout_map` picks up the ambient plane
automatically — serial runs report inline, workers post on their pipe
to the shard supervisor, which calls :meth:`ProgressPlane.apply`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.context import (
    current_plane,
    current_reporter,
    flow_completed,
    heartbeat,
    reporting,
    scope,
)

__all__ = [
    "ProgressEvent",
    "ProgressPlane",
    "ShardReporter",
    "ShardState",
    "current_plane",
    "current_reporter",
    "flow_completed",
    "heartbeat",
    "plane",
    "reporting",
]

#: Minimum seconds between posted ``update`` events per shard.
UPDATE_INTERVAL = 0.25

#: Default seconds between rendered status refreshes.
REFRESH_INTERVAL = 1.0

#: Seconds between plain status lines on a non-TTY stream (CI logs).
#: A redirected stream cannot rewrite in place, so every refresh is a
#: permanent log line; once every few seconds is plenty.
NONTTY_REFRESH_INTERVAL = 10.0

#: Default seconds between Prometheus/JSONL snapshot writes.
SNAPSHOT_INTERVAL = 5.0

SNAPSHOT_SCHEMA = "repro.obs.progress/1"

#: JSONL snapshots retained in memory (the file is rewritten atomically
#: per export): first snapshot + this many recent ones ≈ an hour of
#: history at the default cadence.
MAX_SNAPSHOTS = 720


class ProgressEvent:
    """One heartbeat from a shard (picklable, pipe-friendly).

    ``retry`` and ``fail`` are parent-side supervision verdicts (a shard requeued after a failed attempt; a
    shard quarantined after exhausting its budget).
    """

    __slots__ = ("shard", "kind", "label", "flows_done", "flows_total",
                 "events", "wall_s", "ts")

    def __init__(self, shard: int, kind: str, label: str = "",
                 flows_done: int = 0, flows_total: Optional[int] = None,
                 events: int = 0, wall_s: float = 0.0,
                 ts: Optional[float] = None) -> None:
        self.shard = shard
        self.kind = kind  # "start" | "update" | "done" | "retry" | "fail"
        self.label = label
        self.flows_done = flows_done
        self.flows_total = flows_total
        self.events = events
        self.wall_s = wall_s
        self.ts = ts if ts is not None else time.time()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProgressEvent(shard={self.shard}, kind={self.kind!r}, "
                f"flows={self.flows_done}, events={self.events})")


class ShardState:
    """Parent-side view of one shard's latest heartbeat."""

    __slots__ = ("shard", "label", "state", "flows_done", "flows_total",
                 "events", "wall_s", "updated_at", "retries")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.label = ""
        self.state = "pending"  # pending | running | done | failed
        self.flows_done = 0
        self.flows_total: Optional[int] = None
        self.events = 0
        self.wall_s = 0.0
        self.updated_at = 0.0
        self.retries = 0

    def apply(self, event: ProgressEvent) -> None:
        """Fold one heartbeat in (monotonic per shard)."""
        if event.label:
            self.label = event.label
        if event.kind == "start":
            self.state = "running"
        elif event.kind == "done":
            self.state = "done"
        elif event.kind == "retry":
            # The supervisor requeued this shard: back to waiting, with
            # the attempt recorded.  A ``start`` follows when it re-runs.
            self.retries += 1
            self.state = "pending"
        elif event.kind == "fail":
            self.state = "failed"
        elif self.state == "pending":
            self.state = "running"
        self.flows_done = max(self.flows_done, event.flows_done)
        if event.flows_total is not None:
            self.flows_total = event.flows_total
        self.events = max(self.events, event.events)
        self.wall_s = max(self.wall_s, event.wall_s)
        self.updated_at = event.ts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "label": self.label,
            "state": self.state,
            "flows_done": self.flows_done,
            "flows_total": self.flows_total,
            "events": self.events,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 6),
        }


class ShardReporter:
    """Worker-side heartbeat emitter for one shard.

    ``post`` is either a worker pipe's ``send`` (worker processes) or the
    plane's ``apply`` (serial runs); the reporter never blocks on it beyond what
    the channel itself costs, and throttles ``update`` events to one per
    :data:`UPDATE_INTERVAL` of wall clock.
    """

    __slots__ = ("shard", "_post", "_label", "_started", "_last_update",
                 "flows_done", "events")

    def __init__(self, shard: int, post: Callable[[ProgressEvent], None]
                 ) -> None:
        self.shard = shard
        self._post = post
        self._label = ""
        self._started = 0.0
        self._last_update = 0.0
        self.flows_done = 0
        self.events = 0

    def started(self, label: str = "",
                flows_total: Optional[int] = None) -> None:
        """Announce the shard is running."""
        self._label = label
        self._started = time.perf_counter()
        self._post(ProgressEvent(self.shard, "start", label=label,
                                 flows_total=flows_total))

    def flow_completed(self, events: Optional[int] = None) -> None:
        """Count one finished flow (the natural ``on_complete`` hook)."""
        self.flows_done += 1
        self.update(events=events)

    def update(self, flows_done: Optional[int] = None,
               events: Optional[int] = None, force: bool = False) -> None:
        """Post a throttled mid-shard heartbeat; ``None`` fields keep
        their current value."""
        if flows_done is not None:
            self.flows_done = flows_done
        if events is not None:
            self.events = events
        now = time.perf_counter()
        if not force and now - self._last_update < UPDATE_INTERVAL:
            return
        self._last_update = now
        self._post(ProgressEvent(
            self.shard, "update", label=self._label,
            flows_done=self.flows_done, events=self.events,
            wall_s=now - self._started if self._started else 0.0))

    def done(self, flows_done: Optional[int] = None,
             events: Optional[int] = None) -> None:
        """Announce the shard finished (always posted, never throttled)."""
        if flows_done is not None:
            self.flows_done = flows_done
        if events is not None:
            self.events = events
        wall = (time.perf_counter() - self._started) if self._started else 0.0
        self._post(ProgressEvent(
            self.shard, "done", label=self._label,
            flows_done=self.flows_done, events=self.events, wall_s=wall))


class ProgressPlane:
    """Parent-side aggregation, rendering, and export of shard progress.

    Parameters
    ----------
    out_dir:
        When set, ``progress.prom`` (Prometheus text exposition,
        overwritten) and ``progress.jsonl`` (appended snapshots) are
        written there every :data:`SNAPSHOT_INTERVAL` seconds and once
        at the end.
    stream:
        Where the refreshing status line goes (default ``sys.stderr``);
        None disables rendering (exports still happen).
    refresh / snapshot_every:
        Wall-clock intervals for rendering and export.
    """

    def __init__(self, out_dir: Optional[str] = None, stream: Any = "stderr",
                 refresh: float = REFRESH_INTERVAL,
                 snapshot_every: float = SNAPSHOT_INTERVAL) -> None:
        self.out_dir = out_dir
        self.stream = sys.stderr if stream == "stderr" else stream
        # Decide the rendering mode once: a pipe's isatty() answer will
        # not change mid-run, and caching it keeps tick() cheap.
        self._is_tty = bool(
            getattr(self.stream, "isatty", lambda: False)()
        ) if self.stream is not None else False
        self.refresh = refresh
        self.snapshot_every = snapshot_every
        self.total_shards = 0
        self.shards: Dict[int, ShardState] = {}
        self.started_at = time.time()
        self._started_mono = time.perf_counter()
        self._lock = threading.Lock()
        self._last_render = 0.0
        self._last_snapshot = 0.0
        self._rendered_once = False
        self._snapshots: List[str] = []

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def begin(self, total_shards: int) -> None:
        """Declare the fan-out width (called by ``fanout_map``)."""
        with self._lock:
            self.total_shards = max(self.total_shards, total_shards)

    def apply(self, event: ProgressEvent) -> None:
        """Fold one heartbeat into the plane (thread-safe)."""
        with self._lock:
            state = self.shards.get(event.shard)
            if state is None:
                state = self.shards[event.shard] = ShardState(event.shard)
            state.apply(event)
        self.tick()

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Any]:
        """The aggregate counters every export carries."""
        with self._lock:
            states = list(self.shards.values())
            total = self.total_shards or len(states)
        done = sum(1 for s in states if s.state == "done")
        running = sum(1 for s in states if s.state == "running")
        failed = sum(1 for s in states if s.state == "failed")
        retries = sum(s.retries for s in states)
        flows = sum(s.flows_done for s in states)
        events = sum(s.events for s in states)
        elapsed = time.perf_counter() - self._started_mono
        rate = events / elapsed if elapsed > 0 else 0.0
        eta = (elapsed * (total - done) / done) if done and total else None
        return {
            "shards_total": total,
            "shards_done": done,
            "shards_running": running,
            "shards_failed": failed,
            "shard_retries": retries,
            "flows_done": flows,
            "events": events,
            "elapsed_s": elapsed,
            "events_per_s": rate,
            "eta_s": eta,
        }

    def render_line(self) -> str:
        """The one-line live status (terminal refresh form)."""
        t = self.totals()
        eta = f"{t['eta_s']:.0f}s" if t["eta_s"] is not None else "?"
        trouble = ""
        if t["shards_failed"] or t["shard_retries"]:
            trouble = (f" [{t['shards_failed']} failed, "
                       f"{t['shard_retries']} retries]")
        return (f"[obs] shards {t['shards_done']}/{t['shards_total']} "
                f"({t['shards_running']} running){trouble} | "
                f"flows {t['flows_done']} | "
                f"events {t['events']:,} | "
                f"{t['events_per_s']:,.0f} ev/s | eta {eta}")

    def render_table(self, max_rows: int = 32) -> str:
        """Full per-shard status table (final summaries, snapshots)."""
        with self._lock:
            states = sorted(self.shards.values(), key=lambda s: s.shard)
        lines = [self.render_line()]
        for state in states[:max_rows]:
            total = (f"/{state.flows_total}"
                     if state.flows_total is not None else "")
            label = f" {state.label}" if state.label else ""
            lines.append(
                f"  shard {state.shard:<4d} {state.state:<8s}"
                f" flows {state.flows_done}{total:<8s}"
                f" events {state.events:<10d} wall {state.wall_s:.2f}s"
                f"{label}")
        if len(states) > max_rows:
            lines.append(f"  ... {len(states) - max_rows} more shards")
        return "\n".join(lines)

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the aggregate state."""
        t = self.totals()
        rows = [
            ("repro_progress_shards_total", "gauge",
             "Shards in the current fan-out", t["shards_total"]),
            ("repro_progress_shards_done", "gauge",
             "Shards that have finished", t["shards_done"]),
            ("repro_progress_shards_running", "gauge",
             "Shards currently executing", t["shards_running"]),
            ("repro_progress_shards_failed", "gauge",
             "Shards quarantined after exhausting their retry budget",
             t["shards_failed"]),
            ("repro_progress_shard_retries_total", "counter",
             "Shard attempts requeued by the supervisor",
             t["shard_retries"]),
            ("repro_progress_flows_done_total", "counter",
             "Flows completed across all shards", t["flows_done"]),
            ("repro_progress_sim_events_total", "counter",
             "Simulator events executed across all shards", t["events"]),
            ("repro_progress_events_per_second", "gauge",
             "Aggregate simulator event throughput", t["events_per_s"]),
            ("repro_progress_elapsed_seconds", "gauge",
             "Wall-clock seconds since the plane started", t["elapsed_s"]),
        ]
        lines: List[str] = []
        for name, kind, help_text, value in rows:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value:g}")
        if t["eta_s"] is not None:
            lines.append("# HELP repro_progress_eta_seconds "
                         "Estimated seconds until the fan-out completes")
            lines.append("# TYPE repro_progress_eta_seconds gauge")
            lines.append(f"repro_progress_eta_seconds {t['eta_s']:g}")
        return "\n".join(lines) + "\n"

    def snapshot_doc(self) -> Dict[str, Any]:
        """One JSONL snapshot record."""
        t = self.totals()
        with self._lock:
            shards = [self.shards[k].to_dict()
                      for k in sorted(self.shards)]
        return {
            "schema": SNAPSHOT_SCHEMA,
            "ts": time.time(),
            "totals": {k: (round(v, 6) if isinstance(v, float) else v)
                       for k, v in t.items()},
            "shards": shards,
        }

    # ------------------------------------------------------------------
    # Rendering / export cadence
    # ------------------------------------------------------------------

    def tick(self, force: bool = False) -> None:
        """Render/export if the respective intervals have elapsed."""
        now = time.perf_counter()
        # Non-TTY streams get full permanent lines, so refresh far less
        # often than a terminal that repaints in place.
        interval = (self.refresh if self._is_tty
                    else max(self.refresh, NONTTY_REFRESH_INTERVAL))
        if self.stream is not None and (force
                                        or now - self._last_render
                                        >= interval):
            self._last_render = now
            self._render_to_stream()
        if self.out_dir is not None and (force
                                         or now - self._last_snapshot
                                         >= self.snapshot_every):
            self._last_snapshot = now
            self.export()

    def _render_to_stream(self) -> None:
        line = self.render_line()
        try:
            if self._is_tty:
                self.stream.write("\r\x1b[2K" + line)
                self.stream.flush()
            else:
                self.stream.write(line + "\n")
            self._rendered_once = True
        except ValueError:  # stream closed (interpreter teardown)
            self.stream = None

    def export(self) -> List[str]:
        """Publish ``progress.prom`` + a new ``progress.jsonl`` snapshot;
        returns the written paths.

        Both files are published atomically (temp file +
        ``os.replace``) so a scraper or tail never observes torn
        output: the JSONL history lives in memory (capped) and the
        whole file is rewritten per export, which on this run's cadence
        is a few kilobytes every :data:`SNAPSHOT_INTERVAL` seconds.
        """
        if self.out_dir is None:
            return []
        from repro.obs.atomicio import atomic_write_text

        os.makedirs(self.out_dir, exist_ok=True)
        prom_path = os.path.join(self.out_dir, "progress.prom")
        jsonl_path = os.path.join(self.out_dir, "progress.jsonl")
        line = json.dumps(self.snapshot_doc(), sort_keys=True,
                          separators=(",", ":"))
        self._snapshots.append(line)
        if len(self._snapshots) > MAX_SNAPSHOTS:
            # Keep the first snapshot (run start) and the recent tail.
            self._snapshots = ([self._snapshots[0]]
                               + self._snapshots[-(MAX_SNAPSHOTS - 1):])
        atomic_write_text(prom_path, self.prometheus_text(), fsync=False)
        atomic_write_text(jsonl_path, "\n".join(self._snapshots) + "\n",
                          fsync=False)
        return [prom_path, jsonl_path]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Final render + export."""
        if self.stream is not None and self._rendered_once:
            try:
                if self._is_tty:
                    # Clear the in-place [obs] status line so the next
                    # shell prompt or report starts on a clean row.
                    self.stream.write("\r\x1b[2K")
                else:
                    # Permanent logs get one final authoritative line.
                    self.stream.write(self.render_line() + "\n")
                self.stream.flush()
            except ValueError:  # pragma: no cover - closed stream
                pass
        if self.out_dir is not None:
            self.export()

    def __enter__(self) -> "ProgressPlane":
        self._scope = scope(plane=self)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._scope.__exit__(*exc)
        self.close()


# ----------------------------------------------------------------------
# Ambient plane (parent process) and reporter (worker side): the
# ``plane`` / ``reporter`` slots of the run context
# ----------------------------------------------------------------------


def plane(**kwargs) -> ProgressPlane:
    """Create a :class:`ProgressPlane`; as a context manager it is
    ambient inside the block and closed on exit."""
    return ProgressPlane(**kwargs)
