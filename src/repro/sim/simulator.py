"""The discrete-event simulator.

:class:`Simulator` owns the clock and the event queue.  Components
(links, queues, transport endpoints) hold a reference to the simulator
and schedule callbacks on it; nothing in the library uses wall-clock
time, threads, or asyncio — a run is a deterministic function of the
initial configuration and the RNG seeds.

A restartable :class:`Timer` is provided for retransmission timers and
similar patterns where the same logical timer is re-armed many times.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError, StallError
from repro.sim.event import Event, EventHandle
from repro.sim.scheduler import (EventScheduler, PermutedEventScheduler,
                                 current_tiebreak_salt)
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.context import current_hub
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.schema import EV_SCHED_EXEC, EV_SIM_CRASH

__all__ = ["Simulator", "Timer", "DEFAULT_STALL_EVENT_LIMIT",
           "fold_tie_break_stats", "reset_tie_break_stats", "tie_break_stats"]

#: Default no-progress watchdog threshold: events allowed to fire at one
#: simulated instant before the run is declared stalled.  Real workloads
#: fire at most a few thousand same-instant events (a burst release),
#: so a million same-instant events can only be a zero-delay cycle.
DEFAULT_STALL_EVENT_LIMIT = 1_000_000


# ----------------------------------------------------------------------
# Process-wide tie-break exposure accounting
# ----------------------------------------------------------------------

#: Process-wide accumulator of same-timestamp event groups across every
#: simulator run since the last :func:`reset_tie_break_stats`.  CLIs
#: reset it at startup and surface the totals in the run summary and
#: ``run_manifest.json`` so order-sensitivity exposure is visible per
#: run.  A ``--jobs N`` worker ships each cell's counters back and the
#: supervisor folds them in (:func:`fold_tie_break_stats`), so they
#: cover every simulator of the run.
_TIE_BREAK_STATS = {"groups": 0, "max_group": 0}


def reset_tie_break_stats() -> None:
    """Zero the process-wide tie-break counters (CLIs call this once)."""
    _TIE_BREAK_STATS["groups"] = 0
    _TIE_BREAK_STATS["max_group"] = 0


def fold_tie_break_stats(stats: Dict[str, int]) -> None:
    """Add another process's :func:`tie_break_stats` to this one's."""
    _TIE_BREAK_STATS["groups"] += stats["groups"]
    _TIE_BREAK_STATS["max_group"] = max(_TIE_BREAK_STATS["max_group"],
                                        stats["max_group"])


def tie_break_stats() -> Dict[str, int]:
    """Snapshot of the process-wide tie-break counters.

    ``groups`` counts same-timestamp event groups (two or more events
    fired at one simulated instant within one :meth:`Simulator.run`
    pass); ``max_group`` is the largest such group seen.  Every group is
    a point where the scheduler's FIFO tie-break chose an order — the
    exposure surface the happens-before analysis (:mod:`repro.hb`)
    audits for commutativity.
    """
    return dict(_TIE_BREAK_STATS)


def _callback_label(callback: Callable[..., Any]) -> str:
    """A callback's qualified name; its ``repr`` only when it has none
    (``functools.partial``) — ``repr`` of a bound method renders the
    whole owner, far too slow to build per executed event."""
    try:
        return callback.__qualname__
    except AttributeError:
        return repr(callback)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all randomness drawn during the run (see
        :class:`~repro.sim.randomness.RandomStreams`).
    trace:
        Optional trace recorder; when omitted a disabled recorder is
        installed so components can call ``sim.trace.record(...)``
        unconditionally.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`; when
        omitted a disabled registry is installed so components can
        resolve instruments unconditionally.
    profiler:
        Optional :class:`~repro.telemetry.profiling.SimProfiler` that
        receives per-event wall-clock timings and heap-depth readings.
    stall_event_limit:
        No-progress watchdog threshold: when more than this many events
        fire without the simulated clock advancing, :meth:`run` raises a
        diagnosable :class:`~repro.errors.StallError` carrying a dump of
        the next pending events instead of spinning forever.  ``None``
        disables the watchdog.

    When a telemetry session is active (see
    :func:`repro.telemetry.session`) any of the three left unspecified
    is picked up from the session's hub, which is how ``--telemetry``
    instruments experiments without changing their signatures.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profiler=None,
                 stall_event_limit: Optional[int] = DEFAULT_STALL_EVENT_LIMIT,
                 ) -> None:
        hub = current_hub()
        if hub is not None:
            if trace is None:
                trace = hub.trace
            if metrics is None:
                metrics = hub.metrics
            if profiler is None:
                profiler = hub.profiler
        self._now = 0.0
        #: Ambient tie-break permutation salt captured at construction
        #: (see :func:`repro.sim.scheduler.tiebreak_permutation`); None
        #: means the canonical FIFO tie-break.
        self.tiebreak_salt = current_tiebreak_salt()
        self._queue = (EventScheduler() if self.tiebreak_salt is None
                       else PermutedEventScheduler(self.tiebreak_salt))
        self._running = False
        self._stopped = False
        self.streams = RandomStreams(seed)
        # Trace-recorder watchers: hot-path components (links, hosts)
        # cache the recorder locally so disabled observability costs a
        # single attribute check; assigning ``sim.trace`` rebinds them.
        self._trace_watchers: list = []
        self._trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        # Publish the lazily-cancelled backlog so telemetry can see timer
        # churn; a disabled registry hands back the no-op metric.
        self._queue.backlog_gauge = self.metrics.gauge(
            "scheduler.cancelled_backlog")
        self.profiler = profiler
        #: No-progress watchdog: when this many events fire at a single
        #: simulated instant, :meth:`run` raises
        #: :class:`~repro.errors.StallError` with a pending-event dump
        #: instead of spinning forever.  ``None`` disables the watchdog.
        self.stall_event_limit = stall_event_limit
        self._stall_time = float("nan")
        self._stall_count = 0
        #: Same-timestamp event groups fired by :meth:`run` (two or more
        #: events at one simulated instant) and the largest group seen.
        #: Each group is a point where the FIFO tie-break chose an order;
        #: the totals roll up into the process-wide
        #: :func:`tie_break_stats` for run summaries and manifests.
        self.tie_break_groups = 0
        self.tie_break_max = 0
        self._tb_published_groups = 0
        # Happens-before provenance plane (repro.hb).  ``_prov`` caches
        # ``trace.enabled and trace.provenance`` so the hot loop pays a
        # single local check; ``_exec_seq`` is the seq of the event whose
        # callback is currently running (the scheduling parent stamped
        # onto children).  The entity registry pins owners alive so
        # ``id()`` reuse cannot misattribute events.
        self._prov = self._trace.enabled and self._trace.provenance
        self._exec_seq: Optional[int] = None
        #: Logical push time of the event whose callback is currently
        #: running (see :mod:`repro.sim.event`).  The batched link
        #: datapath compares it against planned dequeue instants to
        #: decide whether a same-timestamp occupancy release has
        #: logically happened yet.
        self.exec_lpush = 0.0
        self._entity_names: Dict[int, Any] = {}
        self._entity_counts: Dict[str, int] = {}
        #: Number of events executed so far (diagnostic).
        self.events_run = 0
        #: Scheduler events the batched datapath *eliminated*: heap
        #: traffic the per-packet (unbatched) execution would have fired
        #: but a packet-train plan advanced analytically instead (see
        #: :mod:`repro.net.link`).  ``events_run + events_absorbed``
        #: is the logical event count of the equivalent unbatched run —
        #: the number benchmark events/s figures are measured against,
        #: so batched and unbatched runs stay comparable row-for-row.
        self.events_absorbed = 0
        #: Ground-truth per-flow packet drops (queue overflow + in-flight
        #: loss), keyed by flow id.  Links update this; experiments read
        #: it to classify trials as lossy (paper Fig. 8).
        self.flow_drops: Dict[int, int] = {}

    def note_drop(self, flow_id: int) -> None:
        """Record one dropped packet for ``flow_id``."""
        self.flow_drops[flow_id] = self.flow_drops.get(flow_id, 0) + 1

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Trace recorder
    # ------------------------------------------------------------------

    @property
    def trace(self) -> TraceRecorder:
        """The active trace recorder.

        Assigning a replacement recorder (telemetry sessions and the
        Fig. 3 walk-through do this) rebinds every watcher registered
        via :meth:`watch_trace`, so components that cached the recorder
        keep seeing the live one.
        """
        return self._trace

    @trace.setter
    def trace(self, recorder: TraceRecorder) -> None:
        self._trace = recorder
        self._refresh_provenance()
        for rebind in self._trace_watchers:
            rebind(recorder)

    def _refresh_provenance(self) -> bool:
        """Re-cache the provenance-on flag from the active recorder.

        Called when the recorder is replaced and on every :meth:`run`
        entry, so a subscription that turns ``trace.provenance`` on (the
        audit/hb sessions') takes effect at the next run.
        """
        self._prov = self._trace.enabled and self._trace.provenance
        return self._prov

    def watch_trace(self, rebind: Callable[[TraceRecorder], None]) -> None:
        """Register ``rebind``; it is called immediately with the current
        recorder and again whenever ``sim.trace`` is reassigned.

        Topology-lifetime components (links, hosts) use this to cache
        the recorder in an instance attribute, making the disabled-
        observability guard on their per-packet paths a single attribute
        check instead of a ``sim.trace`` indirection.
        """
        rebind(self._trace)
        self._trace_watchers.append(rebind)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises :class:`SimulationError` if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s into the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self._now:.9f}"
            )
        event = Event(time, callback, args, priority=priority)
        event.lpush = self._now
        if self._prov:
            event.parent = self._exec_seq
        self._queue.push(event)
        return _TrackedHandle(event, self._queue)

    def schedule_fast(self, time: float, callback: Callable[..., Any],
                      *args: Any, lpush: Optional[float] = None) -> None:
        """Handle-free :meth:`schedule_at` for never-cancelled hot events.

        The batched link datapath schedules thousands of delivery events
        per run that are never cancelled and never inspected; skipping
        the :class:`EventHandle` allocation and the past-time guard (the
        caller computes times from ``now`` plus non-negative spans) is a
        measurable share of per-event cost.  Sequence numbers still come
        from the global event counter.

        ``lpush`` back-dates the event's logical push time to the
        instant the per-packet (unbatched) execution would have
        scheduled it — the scheduler orders same-timestamp events by
        ``(lpush, seq)``, so a train-planned delivery scheduled early
        still fires in exactly the slot its unbatched counterpart would
        have occupied.  Defaults to ``now`` (ordinary FIFO semantics).
        """
        event = Event(time, callback, args)
        event.lpush = self._now if lpush is None else lpush
        if self._prov:
            event.parent = self._exec_seq
        self._queue.push(event)

    # ------------------------------------------------------------------
    # Happens-before provenance
    # ------------------------------------------------------------------

    def _event_entity(self, callback: Callable[..., Any]) -> str:
        """Stable entity name for the state ``callback`` runs against.

        The entity is the callback's owner: the bound-method receiver
        (link, host, queue, timer, pacer, ...) or the function object
        itself for free functions and closures.  Distinct owner
        *instances* get distinct names — entity identity is the shared-
        mutable-state proxy the nondeterminism checker keys on.

        An owner holding genuinely independent halves can refine the
        proxy with a class-level ``HB_PARTITIONS`` map (callback name ->
        partition label): listed callbacks run against a ``owner/label``
        sub-entity instead of the owner itself.  Declaring a partition
        asserts the listed callbacks share no mutable state with the
        owner's other callbacks — see :class:`repro.net.link.Link`.
        """
        owner = getattr(callback, "__self__", callback)
        key = id(owner)
        cached = self._entity_names.get(key)
        if cached is not None:
            return self._partitioned(owner, callback, cached[1])
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            # A .name can be a *class* attribute shared by every
            # instance (chaos impairments); suffix repeats so distinct
            # owners never collapse into one entity.
            index = self._entity_counts.get(name, 0)
            self._entity_counts[name] = index + 1
            if index:
                name = f"{name}#{index}"
        else:
            flow_id = getattr(owner, "flow_id", None)
            if flow_id is not None:
                name = f"flow:{flow_id}"
            else:
                if owner is callback:
                    base = _callback_label(callback)
                else:
                    base = type(owner).__name__
                index = self._entity_counts.get(base, 0)
                self._entity_counts[base] = index + 1
                name = f"{base}#{index}"
        # Pin the owner: if it were collected, a recycled id() could
        # alias a new object onto this entity.
        self._entity_names[key] = (owner, name)
        return self._partitioned(owner, callback, name)

    @staticmethod
    def _partitioned(owner: Any, callback: Callable[..., Any],
                     name: str) -> str:
        partitions = getattr(owner, "HB_PARTITIONS", None)
        if partitions:
            label = partitions.get(getattr(callback, "__name__", ""))
            if label:
                return f"{name}/{label}"
        return name

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final simulated time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        profiler = self.profiler
        stall_limit = self.stall_event_limit
        prov = self._refresh_provenance()
        queue = self._queue
        if profiler is not None:
            profiler.begin_run()
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and fired >= max_events:
                    break
                # One scheduler call per turn: it sheds cancelled heads
                # and leaves an event due after ``until`` queued.
                event = queue.pop_due(until)
                if event is None:
                    break
                time = event.time
                self._now = time
                self.exec_lpush = event.lpush
                # The same-instant counter doubles as the stall watchdog
                # and the tie-break exposure accounting: every group of
                # two or more events at one instant is a point where the
                # scheduler's tie-break chose an execution order.
                if time == self._stall_time:
                    self._stall_count += 1
                    if self._stall_count == 2:
                        self.tie_break_groups += 1
                    if self._stall_count > self.tie_break_max:
                        self.tie_break_max = self._stall_count
                    if stall_limit is not None and self._stall_count > stall_limit:
                        # Lead the dump with the event about to fire:
                        # it is already popped (so not in the queue
                        # snapshot), and in a tight zero-delay cycle
                        # it IS the loop.
                        raise StallError(
                            time, self._stall_count,
                            ["firing: " + queue.render_event(event)]
                            + queue.snapshot(),
                        )
                else:
                    self._stall_time = time
                    self._stall_count = 1
                callback = event.callback
                if prov:
                    self._exec_seq = event.seq
                    self._trace.record(
                        time, EV_SCHED_EXEC,
                        self._event_entity(callback),
                        seq=event.seq, parent=event.parent,
                        callback=_callback_label(callback),
                        prio=event.priority)
                if profiler is None:
                    callback(*event.args)
                else:
                    started = profiler.clock()
                    callback(*event.args)
                    profiler.on_event(callback,
                                      profiler.clock() - started,
                                      queue.heap_depth)
                self.events_run += 1
                fired += 1
        except BaseException as exc:
            # Post-mortem marker: lets flight recorders (repro.audit)
            # capture the crash site with the lineage ring still warm.
            self.trace.record(self._now, EV_SIM_CRASH, "simulator",
                              error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._running = False
            self._exec_seq = None
            self._publish_tie_breaks()
            if profiler is not None:
                profiler.end_run()
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def step(self) -> bool:
        """Run exactly one event.  Returns False if the queue was empty."""
        before = self.events_run
        self.run(max_events=1)
        return self.events_run != before

    def _publish_tie_breaks(self) -> None:
        """Fold this simulator's tie-break counters into the process-wide
        totals.  Delta-based so repeated :meth:`run` calls on one
        simulator (phased experiments) are not double-counted."""
        groups = self.tie_break_groups
        if groups != self._tb_published_groups:
            _TIE_BREAK_STATS["groups"] += groups - self._tb_published_groups
            self._tb_published_groups = groups
        if self.tie_break_max > _TIE_BREAK_STATS["max_group"]:
            _TIE_BREAK_STATS["max_group"] = self.tie_break_max

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Approximate number of live queued events."""
        return len(self._queue)

    def timer(self, callback: Callable[[], Any], name: str = "") -> "Timer":
        """Create a restartable :class:`Timer` bound to this simulator."""
        return Timer(self, callback, name=name)


class _TrackedHandle(EventHandle):
    """Event handle that keeps the scheduler's live-count accurate."""

    __slots__ = ("_scheduler",)

    def __init__(self, event: Event, scheduler: EventScheduler) -> None:
        super().__init__(event)
        self._scheduler = scheduler

    def cancel(self) -> None:
        if not self._event.cancelled:
            self._scheduler.note_cancelled()
        super().cancel()


class Timer:
    """A restartable one-shot timer.

    Used for retransmission timeouts: ``restart(rto)`` cancels any pending
    expiry and arms a new one.  The callback takes no arguments.

    The timer owns its pending :class:`Event` outright — no handle, no
    ``schedule`` round trip — because an RTO is re-armed on every ACK and
    the arm/cancel pair is the simulator's most-travelled path after the
    event loop itself.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "") -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self.name = name
        #: Number of times the timer has expired (diagnostic).
        self.expirations = 0

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None

    @property
    def expiry_time(self) -> Optional[float]:
        """Absolute time of the pending expiry, or None when idle."""
        event = self._event
        return None if event is None else event.time

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now; error if already armed."""
        if self._event is not None:
            raise SimulationError(f"timer {self.name!r} already armed")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.9f}s into the past")
        sim = self._sim
        now = sim._now
        # What ``Simulator.schedule`` would build, minus the handle.
        event = self._event = Event(now + delay, self._fire)
        event.lpush = now
        if sim._prov:
            event.parent = sim._exec_seq
        sim._queue.push(event)

    def restart(self, delay: float) -> None:
        """Cancel any pending expiry and arm a new one."""
        self.cancel()
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer; safe to call when idle."""
        event = self._event
        if event is not None:
            self._event = None
            # Scheduler first, as a handle's cancel does: a compaction
            # this very cancellation triggers still counts the event
            # live, so heap-depth readings match the handle path's.
            self._sim._queue.note_cancelled()
            event.cancel()

    def _fire(self) -> None:
        self._event = None
        self.expirations += 1
        self._callback()
