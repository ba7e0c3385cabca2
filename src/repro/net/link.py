"""Unidirectional links.

A :class:`Link` models one direction of a wire: an egress queue at the
sending side, a serializer limited to ``rate`` bytes/second (one packet
at a time), a fixed propagation ``delay``, and an optional random loss
process applied in flight (used for wireless access profiles).

Beyond the built-in Bernoulli loss, a link carries an **impairment
pipeline** (see :mod:`repro.chaos`): attached impairments judge every
serialized packet (drop it, corrupt it, delay it) and may clone offered
packets (duplicating middleboxes).  The pipeline is empty by default
and every hook sits behind a single ``if self._impairments`` check, so
chaos-off runs pay one falsy test per packet.

Full-duplex connectivity is built from two links; see
:meth:`repro.net.topology.Topology.connect`.

Batched packet-train datapath
-----------------------------
The unbatched execution spends two scheduler events per packet per hop
(``finish_transmission`` + ``deliver``), which BENCH_2 profiling shows
is ~96 % of all events on the figure macros.  When nothing needs
per-packet control, the link instead *plans* the whole back-to-back run
at serialization start: per-packet start/finish/delivery timestamps are
computed analytically (the same chained float additions the per-packet
events would have performed, so timestamps are bit-identical), one
delivery event is pushed per surviving packet, and a single lazily
scheduled restart continues the train when more packets queue behind a
busy serializer.

Two mechanisms compose:

* **Train planning** replaces every ``finish_transmission`` event with
  arithmetic.  Queue-occupancy decisions stay byte-identical through
  ``DropTailQueue.pending_bytes``: planned packets whose serialization
  start is still in the future are re-counted as queued, which is
  exactly when the unbatched execution would still hold them.
* **Cut-through chaining** extends a plan across downstream links that
  a topology builder marked ``cut_through`` (links with a single
  structural feeder, e.g. the access-network last-mile edges).  When
  such a link is provably idle at the packet's arrival instant, its
  serialization is planned in the same pass and no event fires at the
  intermediate router at all.  A real admission racing an outstanding
  plan would break FIFO order, so marked links keep a high-water mark
  of planned arrivals and refuse (loudly) if an admission arrives
  before it — unreachable when the mark is applied to genuinely
  sole-feeder links.  Where a packet may go is resolved once per
  (link, destination host) into a *compiled forwarding chain*: the
  downstream ``cut_through`` links in order, then the terminal — the
  first link that is not marked, or a delivery to a node that does not
  forward.  Planning walks that tuple with no route lookup per hop;
  a routing loop among marked links is refused when the chain is
  compiled, and ``Topology.compute_routes`` clears every chain.

**One selector.**  "Does anything need per-packet control on this
link?" is answered by one cached boolean, ``self._fast``, recomputed by
:meth:`Link.refresh_fast_path` whenever the answer can change;
:meth:`Link.send` picks a path for an offered packet by it, and so do
the two hot callers that skip that frame (``Host.send`` and the fused
forward step, :meth:`Link._deliver_forward`).  Any of tracing
(lineage/provenance), an attached impairment, a non-drop-tail queue
discipline, a sampling monitor on the link or its queue, a tie-break
salt, or the :func:`set_batching` reference switch (tests and probes
only) forces the per-packet path, which is the pre-batching code and
the reference the equivalence suite compares against.  Bernoulli loss
*is* batchable: draws come from the link's private RNG stream in
serialization order either way.  A flip while the other path still
holds the serializer takes effect at the instant it frees (``_busy``
and :meth:`Link._leave_fast_path`), so the two never serialize at
once.

**Telemetry binding.**  The aggregate ``link.*`` / ``queue.*`` /
``scheduler.events_absorbed`` counters are bound at construction, and
so is ``_metered`` (the registry's ``enabled``): with telemetry off
the datapath makes no counter call at all, and with it on every
counter reads what per-packet increments would have summed to.

``events_absorbed`` accounting keeps benchmarks honest: every event the
plan eliminated increments :attr:`Simulator.events_absorbed` (and the
``scheduler.events_absorbed`` counter), every extra restart event
decrements it, so ``events_run + events_absorbed`` equals the event
count of the equivalent unbatched run exactly.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, SimulationError, TopologyError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.telemetry.schema import (
    EV_CHAOS_CLONE, EV_CHAOS_CORRUPT, EV_LINK_LOSS, EV_PKT_DELIVER,
    EV_PKT_ENQUEUE, EV_PKT_TX, EV_QUEUE_DROP,
)

__all__ = ["Link", "LinkStats", "batching_enabled", "set_batching",
           "batching_disabled"]

#: Process-wide batching master switch.  The equivalence suite flips it
#: off to produce the per-packet reference execution; links cache it at
#: predicate-refresh time, so flip it before building a topology.
_BATCHING = True


def batching_enabled() -> bool:
    """True when links may use the batched packet-train datapath."""
    return _BATCHING


def set_batching(on: bool) -> None:
    """Globally enable/disable train batching (affects links built or
    refreshed afterwards)."""
    global _BATCHING
    _BATCHING = bool(on)


@contextmanager
def batching_disabled() -> Iterator[None]:
    """Run the per-packet reference datapath inside the context (the
    fingerprint-equivalence suite's unbatched arm)."""
    previous = _BATCHING
    set_batching(False)
    try:
        yield
    finally:
        set_batching(previous)


class LinkStats:
    """Delivery counters for one link direction."""

    __slots__ = ("packets_sent", "bytes_sent", "packets_delivered",
                 "bytes_delivered", "packets_lost_inflight",
                 "packets_chaos_dropped", "packets_corrupted")

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.packets_lost_inflight = 0
        #: In-flight losses decided by an attached impairment (subset of
        #: the chaos pipeline; disjoint from ``packets_lost_inflight``,
        #: which counts the built-in Bernoulli process).
        self.packets_chaos_dropped = 0
        #: Packets delivered with the ``corrupted`` flag set.
        self.packets_corrupted = 0


class Link:
    """One direction of a point-to-point link.

    Parameters
    ----------
    sim:
        The simulator this link schedules on.
    name:
        Diagnostic name, e.g. ``"r1->r2"``.
    dst:
        The receiving node (anything with a ``receive(packet)`` method).
    rate:
        Serialization rate in **bytes per second**.
    delay:
        One-way propagation delay in seconds.
    queue:
        Egress queue; defaults to a large drop-tail queue (effectively
        unbounded for edge links).
    loss_rate:
        Probability each serialized packet is lost in flight.
    """

    #: Happens-before partition (``Simulator._event_entity``): the
    #: propagation pipe is independent of the serializer.  ``_deliver``
    #: touches only the delivery counters and ``dst.receive``; it never
    #: reads the egress queue, ``_busy``, or the loss RNG, so a delivery
    #: commutes with a same-instant ``_finish_transmission`` of a later
    #: packet and must not share an entity with the serializer side.
    HB_PARTITIONS = {"_deliver": "pipe"}

    def __init__(
        self,
        sim,
        name: str,
        dst,
        rate: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        loss_rate: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"link {name!r}: rate must be positive")
        if delay < 0:
            raise ConfigurationError(f"link {name!r}: delay must be non-negative")
        self.sim = sim
        self.name = name
        self.dst = dst
        self.rate = rate
        self.delay = delay
        self._queue = queue if queue is not None else DropTailQueue(1 << 30)
        self.set_loss(loss_rate)
        #: True while an event that frees the serializer is pending: the
        #: per-packet path's ``_finish_transmission`` or the train path's
        #: lazily scheduled ``_train_restart``.  Either admission path
        #: only enqueues while it is set.
        self._busy = False
        self._impairments: List = []
        self.stats = LinkStats()
        # --- batched-datapath state -----------------------------------
        #: Absolute time the serializer frees under the batched plan.
        self._busy_until = 0.0
        #: ``(start_time, size, dq_push)`` of train-planned packets still
        #: logically occupying the queue — mirrored into
        #: ``queue.pending_bytes``.  ``dq_push`` is the push time of the
        #: unbatched dequeue event (the previous packet's serialization
        #: start; the planning event's own ``lpush`` for the train head),
        #: used by :meth:`_prune_pending` to resolve same-instant
        #: dequeue-vs-observer ties exactly as the per-packet run would.
        self._pending = deque()
        #: Serialization start of the last train-planned packet — the
        #: push time of the unbatched ``_finish_transmission`` event that
        #: would start the next run, back-dated onto restart events.
        self._last_start = 0.0
        #: Marked by topology builders asserting this link has a single
        #: structural feeder, enabling cut-through planning into it.
        self.cut_through = False
        #: Compiled forwarding chains, one per destination host (see
        #: :meth:`_compile_chain`); ``Topology.compute_routes`` clears it.
        self._chains = {}
        #: Real admissions planned analytically but not yet delivered
        #: toward this link (racing-admission bookkeeping for cut-through
        #: eligibility).
        self._inbound_pending = 0
        #: High-water mark of cut-through arrival times planned into this
        #: link; a real admission before it would break FIFO order.
        self._cut_last_arrival = 0.0
        #: True once a sampling monitor reads this link's counters
        #: mid-run (exact sample timing needs per-packet events).
        self.monitored = False
        self._fast = False
        self._queue._owner = self
        # Cached recorder (rebound by the simulator when sim.trace is
        # reassigned): the per-packet lineage guard below is a single
        # attribute check when tracing is off.
        self._trace = sim.trace
        sim.watch_trace(self._rebind_trace)
        # Aggregate (all-links) telemetry, bound once: with the registry
        # disabled the instruments are no-ops and ``_metered`` keeps the
        # datapath from calling them at all.
        metrics = sim.metrics
        self._metered = metrics.enabled
        self._m_tx_packets = metrics.counter("link.tx_packets")
        self._m_tx_bytes = metrics.counter("link.tx_bytes")
        self._m_delivered_bytes = metrics.counter("link.delivered_bytes")
        self._m_inflight_loss = metrics.counter("link.inflight_loss")
        self._m_queue_drops = metrics.counter("queue.drops")
        self._m_queue_drop_bytes = metrics.counter("queue.drop_bytes")
        self._m_chaos_drops = metrics.counter("chaos.drops")
        self._m_chaos_corrupt = metrics.counter("chaos.corrupted")
        self._m_absorbed = metrics.counter("scheduler.events_absorbed")
        self.refresh_fast_path()

    # ------------------------------------------------------------------

    def _rebind_trace(self, recorder) -> None:
        self._trace = recorder
        self.refresh_fast_path()

    def refresh_fast_path(self) -> None:
        """Re-evaluate the cached batched-datapath predicate (module
        docstring, *One selector*).  Called whenever an input changes:
        trace rebind, impairment attach/detach, monitor attachment,
        queue swap.

        Why a tie-break permutation salt is among them: the perturbation
        harness scrambles same-instant order by per-event identity
        (``seq``), and a train plan absorbs events — changing the very
        identities the salt permutes — so a salted run must execute the
        per-packet reference schedule for batched-on/off runs to stay
        byte-identical.
        """
        fast = (
            _BATCHING
            and self.sim.tiebreak_salt is None
            and not self._trace.enabled
            and not self._impairments
            and not self.monitored
            and type(self.queue) is DropTailQueue
            and not self.queue.monitored
        )
        if self._fast and not fast:
            self._leave_fast_path()
        self._fast = fast

    def _leave_fast_path(self) -> None:
        """Hand a train in progress over to the per-packet path, which
        must start at the instant the plan frees the serializer.  (The
        other direction needs nothing: ``_busy`` makes the train path
        enqueue behind a per-packet serialization until it drains.)"""
        sim = self.sim
        now = sim._now
        # Planned packets that have not started serializing are still
        # queued in the per-packet execution; one event each stands in
        # for the dequeue the plan absorbed.
        self._prune_pending(now, sim.exec_lpush)
        for start, size, dq_push in self._pending:
            sim.schedule_fast(start, self._release_pending, self._queue, size,
                              lpush=dq_push)
        sim.events_absorbed -= len(self._pending)
        if self._metered:
            self._m_absorbed.inc(-len(self._pending))
        self._pending.clear()
        if now < self._busy_until and not self._busy:
            self._schedule_restart()

    @staticmethod
    def _release_pending(queue: DropTailQueue, size: int) -> None:
        queue.pending_bytes -= size

    def mark_monitored(self) -> None:
        """Record that a sampler reads this link's counters mid-run
        (disables the batched fast path so sample timing stays exact)."""
        self.monitored = True
        self.refresh_fast_path()

    @property
    def queue(self) -> DropTailQueue:
        """The egress queue discipline."""
        return self._queue

    @queue.setter
    def queue(self, queue: DropTailQueue) -> None:
        # Post-construction swaps (tests / sensitivity studies replacing
        # the discipline, e.g. with CoDel) must re-evaluate the cached
        # batching predicate, or a stale fast path would bypass the new
        # discipline's dequeue-time logic.  Planned-packet occupancy
        # compensation lived on the old queue and goes with it.
        self._pending.clear()
        self._queue = queue
        queue._owner = self
        self.refresh_fast_path()

    # ------------------------------------------------------------------

    def set_loss(self, loss_rate: float) -> None:
        """Install (or change) this link's random in-flight loss rate."""
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(f"link {self.name!r}: loss_rate must be in [0,1)")
        self.loss_rate = loss_rate
        self._loss_rng = (
            self.sim.streams.get(f"link-loss:{self.name}") if loss_rate else None
        )

    # ------------------------------------------------------------------
    # Impairment pipeline (see repro.chaos)
    # ------------------------------------------------------------------

    @property
    def impairments(self) -> List:
        """Attached chaos impairments, in judging order (read-only view)."""
        return list(self._impairments)

    def attach_impairment(self, impairment) -> None:
        """Install ``impairment`` on this link (bound, then appended)."""
        impairment.bind(self)
        self._impairments.append(impairment)
        self.refresh_fast_path()

    def detach_impairment(self, impairment) -> None:
        """Remove one attached impairment (unbinding where supported)."""
        if impairment in self._impairments:
            self._impairments.remove(impairment)
            unbind = getattr(impairment, "unbind", None)
            if unbind is not None:
                unbind()
            self.refresh_fast_path()

    def detach_impairments(self) -> None:
        """Remove every impairment (unbinding timers where supported)."""
        for impairment in list(self._impairments):
            self.detach_impairment(impairment)

    # ------------------------------------------------------------------

    def transmission_time(self, packet: Packet) -> float:
        """Seconds needed to serialize ``packet`` at this link's rate."""
        return packet.size / self.rate

    def send(self, packet: Packet) -> None:
        """Offer ``packet`` to this link (queue, then serialize in order).

        Attached impairments may clone the offered packet (in-network
        duplication); clones are admitted directly so a clone is never
        itself re-judged into further clones.
        """
        if self._fast:
            self._admit_fast(packet)
            return
        if self._impairments:
            trace = self._trace
            for impairment in self._impairments:
                for clone in impairment.clones(packet):
                    if trace.lineage:
                        # The causal edge the audit layer needs: a clone
                        # carries the original's headers, so when it is
                        # the copy that survives, the sender learns the
                        # same contents the original would have taught.
                        trace.record(self.sim.now, EV_CHAOS_CLONE,
                                     self.name, clone_of=packet.uid,
                                     chaos=impairment.name,
                                     **clone.lineage_detail())
                    self._admit(clone)
        self._admit(packet)

    def _record_queue_drop(self, packet: Packet) -> None:
        self.sim.note_drop(packet.flow_id)
        if self._metered:
            self._m_queue_drops.inc()
            self._m_queue_drop_bytes.inc(packet.size)
        self._trace.record(
            self.sim.now, EV_QUEUE_DROP, self.name,
            packet=packet.describe(), uid=packet.uid,
        )

    def _record_inflight_loss(self, packet: Packet) -> None:
        self.stats.packets_lost_inflight += 1
        if self._metered:
            self._m_inflight_loss.inc()
        self.sim.note_drop(packet.flow_id)

    def _admit(self, packet: Packet) -> None:
        if not self.queue.enqueue(packet):
            self._record_queue_drop(packet)
            return
        trace = self._trace
        if trace.lineage:
            trace.record(self.sim.now, EV_PKT_ENQUEUE, self.name,
                         uid=packet.uid, flow=packet.flow_id)
        if not self._busy:
            self._start_transmission()

    # ------------------------------------------------------------------
    # Batched packet-train datapath (see module docstring)
    # ------------------------------------------------------------------

    def _prune_pending(self, now: float, lpush: float) -> None:
        """Release pending-bytes compensation for planned packets the
        unbatched execution would have dequeued by this point.

        A planned packet leaves the unbatched queue inside the event
        that starts its serialization, pushed at the *previous* packet's
        start (stored per entry as ``dq_push``).  An observer at the
        same instant sees the dequeue iff that event executes first —
        i.e. iff its push time is at most the observer's own logical
        push time (``lpush``); entries whose start has strictly passed
        are always released.  Ties in push time release (dequeue-first),
        the one approximation in the emulation — reachable only when
        two pushes coincide to the exact float instant.
        """
        pending = self._pending
        queue = self._queue
        released = queue.pending_bytes
        while pending:
            start, size, dq_push = pending[0]
            if start > now or (start == now and dq_push > lpush):
                break
            pending.popleft()
            released -= size
        queue.pending_bytes = released

    def _admit_fast(self, packet: Packet) -> None:
        sim = self.sim
        now = sim._now
        if now < self._cut_last_arrival:
            raise SimulationError(
                f"link {self.name!r}: admission at t={now:.9f} races a "
                f"cut-through plan arriving at t={self._cut_last_arrival:.9f}; "
                f"this link is marked cut_through but has more than one "
                f"feeder — remove the mark in the topology builder"
            )
        if self._pending:
            self._prune_pending(now, sim.exec_lpush)
        queue = self._queue
        # DropTailQueue.enqueue, inlined (the fast-path predicate admits
        # exact drop-tail queues only); ``_bytes`` is 0 when idle.
        size = packet.size
        occupancy = queue._bytes + queue.pending_bytes + size
        qstats = queue.stats
        if occupancy > queue.capacity_bytes:
            qstats.dropped += 1
            qstats.bytes_dropped += size
            self._record_queue_drop(packet)
            return
        qstats.enqueued += 1
        qstats.bytes_enqueued += size
        if occupancy > qstats.peak_bytes:
            qstats.peak_bytes = occupancy
        if queue._packets or self._busy or now < self._busy_until:
            queue._packets.append(packet)
            queue._bytes += size
            if self._busy:
                return
            if now >= self._busy_until:
                self._start_train()
            else:
                self._schedule_restart()
            return
        # Idle admission — the overwhelmingly common case on edge links
        # — plans the packet as a train of one without the drain
        # round-trip.  The queue counters are exactly what
        # enqueue-then-drain would have recorded.  Priced and kept:
        # falling through to _start_train costs paths_clean
        # +8.8..11.1 % wall_s (EXPERIMENTS.md).
        qstats.dequeued += 1
        # Inline train-of-one plan: the same arithmetic and the same
        # counter/RNG order as _start_train, minus its loop setup and
        # the head's pending entry — the unbatched run dequeues this
        # packet inside the admitting event, so every later observer
        # (same instant, lpush at least this event's) prunes it anyway.
        finish = now + size / self.rate
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        self._busy_until = finish
        self._last_start = now
        absorbed = 1  # the finish_transmission event this replaces
        loss_rng = self._loss_rng
        if loss_rng is not None and loss_rng.random() < self.loss_rate:
            self._record_inflight_loss(packet)
        else:
            absorbed += self._plan_delivery(packet, size,
                                            finish + self.delay, finish)
        sim.events_absorbed += absorbed
        if self._metered:
            self._m_tx_packets.inc()
            self._m_tx_bytes.inc(size)
            self._m_absorbed.inc(absorbed)

    def _schedule_restart(self) -> None:
        """Lazy continuation: one event at the instant the unbatched
        execution's finish_transmission would have started the next
        packet.  It is an *extra* event the unbatched run does not fire,
        so it counts against the absorbed total."""
        self._busy = True
        sim = self.sim
        sim.events_absorbed -= 1
        if self._metered:
            self._m_absorbed.inc(-1)
        # Back-date to the instant the unbatched finish(last) event was
        # pushed (the last planned packet's start), so same-instant
        # races against queued arrivals order identically.
        sim.schedule_fast(self._busy_until, self._train_restart,
                          lpush=self._last_start)

    def _train_restart(self) -> None:
        self._busy = False
        sim = self.sim
        self._prune_pending(sim._now, sim.exec_lpush)
        if not self._fast:
            # The predicate flipped mid-train (_leave_fast_path).
            self._start_transmission()
        elif self._queue._packets:
            self._start_train()

    def _start_train(self) -> None:
        """Plan the whole queued run analytically (serializer is idle).

        Timestamps reproduce the unbatched execution's float arithmetic
        exactly: ``start_0 = now``, ``finish_i = start_i + size_i/rate``,
        ``start_{i+1} = finish_i``, ``delivery_i = finish_i + delay`` —
        the same chained additions the per-packet events perform.
        """
        sim = self.sim
        now = sim._now
        queue = self._queue
        rate = self.rate
        delay = self.delay
        loss_rng = self._loss_rng
        loss_rate = self.loss_rate
        stats = self.stats
        pending = self._pending
        pend_bytes = queue.pending_bytes
        count = 0
        sent_bytes = 0
        absorbed = 0
        t = now
        # Push time of the unbatched event that dequeues the *next*
        # packet: the planning event itself for the train head, then
        # each packet's serialization start for its successor.
        dq_push = sim.exec_lpush
        for p in queue.drain():
            size = p.size
            finish = t + size / rate
            # Every planned packet (head included) logically occupies
            # the queue until its dequeue event would have run; same-
            # instant observers resolve against dq_push in the prune.
            pending.append((t, size, dq_push))
            pend_bytes += size
            dq_push = t
            count += 1
            sent_bytes += size
            # The finish_transmission event this plan replaces.
            absorbed += 1
            if loss_rng is not None and loss_rng.random() < loss_rate:
                self._record_inflight_loss(p)
            else:
                absorbed += self._plan_delivery(p, size, finish + delay,
                                                finish)
            t = finish
        self._busy_until = t
        self._last_start = dq_push
        queue.pending_bytes = pend_bytes
        stats.packets_sent += count
        stats.bytes_sent += sent_bytes
        sim.events_absorbed += absorbed
        if self._metered:
            self._m_tx_packets.inc(count)
            self._m_tx_bytes.inc(sent_bytes)
            self._m_absorbed.inc(absorbed)

    def _plan_delivery(self, p: Packet, size: int, arrival: float,
                       push_t: float) -> int:
        """Schedule the delivery of one train-planned packet — possibly
        cutting through marked downstream links — and return the number
        of downstream events the chain absorbed (two per virtual hop).

        ``arrival`` is the packet's arrival at the current hop's
        destination; ``push_t`` is where the unbatched execution pushes
        the delivery event (this link's serialization finish, updated per
        virtual hop).
        """
        schedule_fast = self.sim.schedule_fast
        hops, terminal = (self._chains.get(p.dst)
                          or self._compile_chain(p.dst))
        absorbed = 0
        cur = self
        for nxt in hops:
            if not nxt._fast:
                schedule_fast(arrival, cur._deliver_forward, p, nxt,
                              lpush=push_t)
                break
            queue2 = nxt._queue
            if (nxt._inbound_pending or queue2._packets
                    or nxt._busy
                    or arrival < nxt._busy_until
                    or size > queue2.capacity_bytes):
                # Not provably idle at the arrival instant: deliver
                # normally, but account the in-flight admission so
                # nxt's own cut decisions stay sound.
                nxt._inbound_pending += 1
                schedule_fast(arrival, cur._deliver_tracked, p, nxt,
                              lpush=push_t)
                break
            # Virtual hop: the unbatched run's deliver -> forward ->
            # enqueue -> start -> finish collapses into arithmetic.
            p.hops += 1
            cur.stats.packets_delivered += 1
            cur.stats.bytes_delivered += size
            qstats = queue2.stats
            qstats.enqueued += 1
            qstats.bytes_enqueued += size
            qstats.dequeued += 1
            if size > qstats.peak_bytes:
                qstats.peak_bytes = size
            nxt._cut_last_arrival = arrival
            finish2 = arrival + size / nxt.rate
            nxt._busy_until = finish2
            nxt._last_start = arrival
            push_t = finish2
            nstats = nxt.stats
            nstats.packets_sent += 1
            nstats.bytes_sent += size
            # cur's deliver event + nxt's finish event, both absorbed.
            absorbed += 2
            rng2 = nxt._loss_rng
            if rng2 is not None and rng2.random() < nxt.loss_rate:
                nxt._record_inflight_loss(p)
                break
            arrival = finish2 + nxt.delay
            cur = nxt
        else:
            if terminal is None:
                schedule_fast(arrival, cur._deliver, p, lpush=push_t)
            else:
                # Delivery into a router whose next hop cannot be
                # planned (e.g. the shared bottleneck): fuse the
                # forwarding dispatch into the delivery callback.
                schedule_fast(arrival, cur._deliver_forward, p, terminal,
                              lpush=push_t)
        if absorbed and self._metered:
            crossed = absorbed >> 1
            self._m_delivered_bytes.inc(crossed * size)
            self._m_tx_packets.inc(crossed)
            self._m_tx_bytes.inc(crossed * size)
        return absorbed

    def _compile_chain(self, dst: str) -> tuple:
        """Resolve once where a packet for host ``dst`` goes after this
        link: ``(hops, terminal)``, where ``hops`` are the downstream
        ``cut_through`` links a plan may cross in order and ``terminal``
        is the first link past them that is not ``cut_through`` — or
        None when the chain ends in a delivery to a node that does not
        forward (or has no route).  Routes and marks are read at the
        first plan toward ``dst``; they are static once
        :meth:`Topology.compute_routes` has run, which clears the cache.
        """
        hops, node = [], self.dst
        while getattr(node, "FORWARDS", False) and dst in node.routes:
            nxt = node.routes[dst]
            if not nxt.cut_through:
                break
            if nxt in hops:
                raise TopologyError(
                    f"routing loop detected toward {dst!r} at {nxt.name!r}")
            hops.append(nxt)
            node = nxt.dst
        else:
            nxt = None
        chain = self._chains[dst] = (tuple(hops), nxt)
        return chain

    def _deliver_forward(self, packet: Packet, next_link: "Link") -> None:
        """Delivery into a forwarding node, fused with the forward step.

        Behaviourally identical to ``_deliver`` followed by
        ``Router.receive`` -> ``forward``: the routing-table lookup was
        done at plan time (routes are static after topology build), and
        the next link's ``_fast`` is read at fire time, so a link whose
        fast-path predicate flipped since planning still takes its
        current datapath.  Scheduled only from train plans, so lineage
        tracing is off at plan time; the guard stays for a recorder
        enabled mid-flight.
        """
        size = packet.size
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += size
        if self._metered:
            self._m_delivered_bytes.inc(size)
        if self._trace.lineage:
            self._trace_delivery(packet)
        packet.hops += 1
        if packet.hops > 64:
            raise TopologyError(f"routing loop detected for {packet.describe()}")
        if next_link._fast:
            next_link._admit_fast(packet)
        else:
            next_link.send(packet)

    def _deliver_tracked(self, packet: Packet, next_link: "Link") -> None:
        """Delivery into a router whose marked next hop could not be cut
        through: release the racing-admission reservation, then deliver
        (fused with the forward step, exactly like ``_deliver_forward``)."""
        next_link._inbound_pending -= 1
        self._deliver_forward(packet, next_link)

    # ------------------------------------------------------------------

    def _start_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.stats.packets_sent += 1
        self.stats.bytes_sent += packet.size
        self._m_tx_packets.inc()
        self._m_tx_bytes.inc(packet.size)
        transmission_time = self.transmission_time(packet)
        trace = self._trace
        if trace.lineage:
            # ``ser`` (schema v4): span consumers need where serialization
            # ends inside the tx -> deliver window, and the rate may have
            # changed by delivery time (chaos bandwidth modulation).
            trace.record(self.sim.now, EV_PKT_TX, self.name,
                         ser=transmission_time, uid=packet.uid,
                         flow=packet.flow_id)
        sim = self.sim
        sim.schedule_fast(sim._now + transmission_time,
                          self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        if self._loss_rng is not None and self._loss_rng.random() < self.loss_rate:
            self._record_inflight_loss(packet)
            self._trace.record(
                self.sim.now, EV_LINK_LOSS, self.name,
                packet=packet.describe(), uid=packet.uid,
            )
        elif self._impairments:
            self._finish_impaired(packet)
        else:
            sim = self.sim
            sim.schedule_fast(sim._now + self.delay, self._deliver, packet)
        # Keep the pipe full: start the next packet immediately.
        self._busy = False
        if len(self.queue):
            self._start_transmission()

    def _finish_impaired(self, packet: Packet) -> None:
        """Serialization finished on an impaired link: run the pipeline.

        The first impairment to return a drop reason wins (the packet is
        recorded as an in-flight loss, which keeps the auditor's per-link
        packet-conservation balance intact); surviving packets accumulate
        extra propagation delay (jitter) and may be corrupted in flight.
        """
        extra_delay = 0.0
        for impairment in self._impairments:
            reason = impairment.in_flight_fate(packet)
            if reason is not None:
                self.stats.packets_chaos_dropped += 1
                self._m_chaos_drops.inc()
                self.sim.note_drop(packet.flow_id)
                self._trace.record(
                    self.sim.now, EV_LINK_LOSS, self.name,
                    packet=packet.describe(), uid=packet.uid,
                    chaos=impairment.name, reason=reason,
                )
                return
            extra_delay += impairment.extra_delay(packet)
            if not packet.corrupted and impairment.corrupts(packet):
                packet.corrupted = True
                self.stats.packets_corrupted += 1
                self._m_chaos_corrupt.inc()
                self._trace.record(
                    self.sim.now, EV_CHAOS_CORRUPT, self.name,
                    packet=packet.describe(), uid=packet.uid,
                    chaos=impairment.name,
                )
        self.sim.schedule(self.delay + extra_delay, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += packet.size
        if self._metered:
            self._m_delivered_bytes.inc(packet.size)
        if self._trace.lineage:
            self._trace_delivery(packet)
        self.dst.receive(packet)

    def _trace_delivery(self, packet: Packet) -> None:
        # ``corrupted`` matters to the auditor: a corrupted ACK is
        # discarded at the endpoint, so its contents must not enter the
        # reconstructed sender-knowledge state.
        if packet.corrupted:
            self._trace.record(self.sim.now, EV_PKT_DELIVER, self.name,
                               dst=self.dst.name, corrupted=True,
                               uid=packet.uid, flow=packet.flow_id)
        else:
            self._trace.record(self.sim.now, EV_PKT_DELIVER, self.name,
                               dst=self.dst.name, uid=packet.uid,
                               flow=packet.flow_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} rate={self.rate:.0f}B/s delay={self.delay * 1e3:.1f}ms>"
