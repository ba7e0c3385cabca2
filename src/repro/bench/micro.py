"""Microbenchmarks of the simulator's known hot paths.

Each benchmark times one tight loop over a single subsystem — the event
queue, the bottleneck queues (drop-tail and RED), the sender ACK
processing path, and trace-sink serialization — so a macro regression
can be localized ("events/sec fell because *pop* got slower") without
re-running a profiler.  State setup happens outside the timed section;
only the hot loop is measured.

The harness runs ``warmup`` discarded passes then ``repetitions`` timed
passes and reports min / median / mean nanoseconds per operation; *min*
is the steady-state number (least scheduler noise), *median* is what the
regression gate compares.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = ["MicroBenchmark", "MICRO_BENCHMARKS", "run_micro_benchmark",
           "run_micro_benchmarks"]


@dataclass(frozen=True)
class MicroBenchmark:
    """One named hot-path benchmark.

    ``runner(n, seed)`` performs roughly ``n`` operations and returns
    ``(elapsed_seconds, ops_performed)`` with only the hot loop timed.
    """

    name: str
    description: str
    runner: Callable[[int, int], Tuple[float, int]]
    default_n: int


# ----------------------------------------------------------------------
# Hot-path loops
# ----------------------------------------------------------------------


def _scheduler_push_pop(n: int, seed: int) -> Tuple[float, int]:
    from repro.sim.event import Event
    from repro.sim.scheduler import EventScheduler

    rng = random.Random(seed)
    times = [rng.random() for _ in range(n)]
    scheduler = EventScheduler()
    callback = (lambda: None)
    started = time.perf_counter()
    for t in times:
        scheduler.push(Event(t, callback))
    while scheduler.pop() is not None:
        pass
    return time.perf_counter() - started, 2 * n


def _scheduler_cancel_churn(n: int, seed: int) -> Tuple[float, int]:
    """Timer-style churn: every second event is cancelled after push —
    the pattern RTO timers produce, and what heap compaction targets."""
    from repro.sim.event import Event
    from repro.sim.scheduler import EventScheduler

    rng = random.Random(seed)
    times = [rng.random() for _ in range(n)]
    scheduler = EventScheduler()
    callback = (lambda: None)
    started = time.perf_counter()
    for i, t in enumerate(times):
        event = Event(t, callback)
        scheduler.push(event)
        if i % 2:
            event.cancel()
            scheduler.note_cancelled()
    while scheduler.pop() is not None:
        pass
    return time.perf_counter() - started, 2 * n


def _queue_ops(queue_factory, n: int, seed: int) -> Tuple[float, int]:
    from repro.net.packet import Packet, PacketType

    packets = [Packet(src="a", dst="b", flow_id=1, kind=PacketType.DATA,
                      size=1500, seq=i) for i in range(n)]
    queue = queue_factory(seed)
    ops = 0
    started = time.perf_counter()
    for i, packet in enumerate(packets):
        queue.enqueue(packet)
        ops += 1
        if i % 3 == 0:
            queue.dequeue()
            ops += 1
    while queue.dequeue() is not None:
        ops += 1
    return time.perf_counter() - started, ops


def _queue_droptail(n: int, seed: int) -> Tuple[float, int]:
    from repro.net.queue import DropTailQueue

    # 64 KB capacity so the loop exercises both admits and tail drops.
    return _queue_ops(lambda s: DropTailQueue(capacity_bytes=64_000), n, seed)


def _queue_red(n: int, seed: int) -> Tuple[float, int]:
    from repro.net.queue import REDQueue

    return _queue_ops(
        lambda s: REDQueue(capacity_bytes=64_000, rng=random.Random(s)),
        n, seed)


def _sender_ack_processing(n: int, seed: int) -> Tuple[float, int]:
    """Drive a real TCP sender's ACK path with synthetic in-order ACKs.

    The sender transmits into the (never-run) network as the window
    opens, so each timed iteration covers scoreboard advance, RTT/RTO
    bookkeeping, cwnd growth, timer restart and ``send_window`` — the
    per-ACK cost an ACK-clocked flow pays.
    """
    from repro.net.packet import Packet, PacketType
    from repro.net.topology import access_network
    from repro.protocols.registry import create_sender
    from repro.sim.simulator import Simulator
    from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
    from repro.units import MSS, gbps, kb, ms

    sim = Simulator(seed=seed)
    net = access_network(sim, n_pairs=1, bottleneck_rate=gbps(10),
                         rtt=ms(10), buffer_bytes=kb(1000))
    sender_host, receiver_host = net.pair(0)
    spec = FlowSpec(next_flow_id(), sender_host.name, receiver_host.name,
                    size=n * MSS, protocol="tcp")
    sender = create_sender(sim, sender_host, spec, record=FlowRecord(spec))
    sender.start()
    sender.on_packet(Packet(src=receiver_host.name, dst=sender_host.name,
                            flow_id=spec.flow_id, kind=PacketType.SYN_ACK,
                            size=40))
    segments = spec.n_segments
    started = time.perf_counter()
    for ack in range(1, segments + 1):
        sender.on_packet(Packet(src=receiver_host.name, dst=sender_host.name,
                                flow_id=spec.flow_id, kind=PacketType.ACK,
                                size=40, ack=ack))
    return time.perf_counter() - started, segments


def _scoreboard_array_ack(n: int, seed: int) -> Tuple[float, int]:
    """Array-backed scoreboard bookkeeping in isolation.

    Drives :class:`~repro.transport.sacks.SendScoreboard` directly —
    ``mark_sent`` stamping the send-time column, then one cumulative
    ACK per segment (every fourth carrying a small SACK block) stamping
    the ack-time column — so the struct-of-arrays state machine is
    timed without any sender/window logic around it.  Ops = sends plus
    ACKs applied.
    """
    from repro.transport.sacks import SendScoreboard

    scoreboard = SendScoreboard(n)
    tick = 1e-4
    started = time.perf_counter()
    for seq in range(n):
        scoreboard.mark_sent(seq, time=seq * tick)
    for cum in range(1, n + 1):
        if cum % 4 == 0 and cum + 2 <= n:
            scoreboard.on_ack(cum, ((cum + 1, cum + 2),),
                              now=(n + cum) * tick)
        else:
            scoreboard.on_ack(cum, now=(n + cum) * tick)
    elapsed = time.perf_counter() - started
    if scoreboard.cum_ack != n:  # pragma: no cover - sanity guard
        raise RuntimeError(f"scoreboard benchmark did not complete: "
                           f"cum_ack {scoreboard.cum_ack}/{n}")
    return elapsed, 2 * n


class _SinkNode:
    """Minimal delivery target for the link benchmark (counts packets)."""

    name = "sink"

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet) -> None:
        self.received += 1


def _link_drain(n: int, seed: int, batched: bool) -> Tuple[float, int]:
    """Drive ``n`` packets through one fast link into a sink endpoint
    and time the whole drain; ops = packets delivered."""
    from repro.net.link import Link, batching_enabled, set_batching
    from repro.net.packet import Packet, PacketType
    from repro.sim.simulator import Simulator
    from repro.units import gbps, us

    previous = batching_enabled()
    set_batching(batched)
    try:
        sim = Simulator(seed=seed)
        sink = _SinkNode()
        link = Link(sim, "bench->sink", sink, rate=gbps(10), delay=us(10))
        packets = [Packet(src="bench", dst="sink", flow_id=1,
                          kind=PacketType.DATA, size=1500, seq=i)
                   for i in range(n)]
        started = time.perf_counter()
        for packet in packets:
            link.send(packet)
        sim.run()
        elapsed = time.perf_counter() - started
    finally:
        set_batching(previous)
    if sink.received != n:  # pragma: no cover - sanity guard
        raise RuntimeError(f"link benchmark lost packets: "
                           f"{sink.received}/{n} delivered")
    return elapsed, n


def _link_deliver(n: int, seed: int) -> Tuple[float, int]:
    """Per-packet link datapath: admit, serialize, propagate, deliver.

    ``Link._deliver`` is the hottest callback in macro runs (every
    packet pays the chain once per hop), so this drives ``n`` packets
    through one fast link into a sink endpoint and times the whole
    drain — covering ``_admit``, the per-packet serialization events,
    ``_deliver`` and the events they schedule.  Train batching is
    disabled for the duration, so this stays the *per-packet reference
    cost* (directly comparable across trajectory files; the batched
    plan is measured by ``link_deliver_train``).  Ops = packets
    delivered.
    """
    return _link_drain(n, seed, batched=False)


def _link_deliver_train(n: int, seed: int) -> Tuple[float, int]:
    """Batched link datapath: one train plan per back-to-back run.

    Identical workload to ``link_deliver``, but with packet-train
    batching on: ``Link._start_train`` pops the whole backlog, computes
    every serialization/delivery instant analytically, and schedules
    only the delivery events.  ``link_deliver / link_deliver_train`` is
    therefore the datapath batching speedup per delivered packet.
    Ops = packets delivered.
    """
    return _link_drain(n, seed, batched=True)


def _trace_sink_serialization(n: int, seed: int) -> Tuple[float, int]:
    from repro.sim.trace import TraceRecord
    from repro.telemetry.export import JsonlTraceSink

    rng = random.Random(seed)
    records = [
        TraceRecord(rng.random() * 10.0, "sender.done", "bench",
                    {"flow": i, "fct": round(rng.random(), 6),
                     "retx": i % 3, "proactive": i % 5})
        for i in range(n)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        sink = JsonlTraceSink(os.path.join(tmp, "trace.jsonl"),
                              flush_every=1000)
        started = time.perf_counter()
        for record in records:
            sink.write(record)
        sink.close()
        elapsed = time.perf_counter() - started
    return elapsed, n


def _logical_events(sim) -> int:
    """Logical event count of a finished run: events the loop fired plus
    events the batched link datapath absorbed into train plans
    (:mod:`repro.net.link`).  Equal to the unbatched run's ``events_run``
    exactly, so paired micros (audit on/off, chaos on/off, ...) report
    comparable per-event costs even when only one side batches."""
    return sim.events_run + sim.events_absorbed


def _halfback_flow(n: int, seed: int, audited: bool) -> Tuple[float, int]:
    """One end-to-end Halfback flow of ``n`` segments; ops = sim events.

    The audited variant runs the same flow under an
    :class:`~repro.audit.session.AuditSession` (lineage events on, all
    invariant checkers live), so ``flow_audit_on / flow_audit_off`` is
    the auditor's per-event cost multiplier.
    """
    import contextlib

    from repro.net.topology import access_network
    from repro.protocols.registry import create_sender
    from repro.sim.simulator import Simulator
    from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
    from repro.transport.receiver import Receiver
    from repro.units import MSS, kb, mbps, ms

    if audited:
        from repro.audit import AuditSession

        session = AuditSession()
    else:
        session = contextlib.nullcontext()
    with session:
        sim = Simulator(seed=seed)
        net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                             rtt=ms(20), buffer_bytes=kb(115))
        sender_host, receiver_host = net.pair(0)
        spec = FlowSpec(next_flow_id(), sender_host.name, receiver_host.name,
                        size=n * MSS, protocol="halfback")
        Receiver(sim, receiver_host, spec.flow_id)
        sender = create_sender(sim, sender_host, spec,
                               record=FlowRecord(spec))
        sender.start()
        started = time.perf_counter()
        sim.run(until=300.0)
        elapsed = time.perf_counter() - started
    return elapsed, _logical_events(sim)


def _flow_audit_off(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow(n, seed, audited=False)


def _flow_audit_on(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow(n, seed, audited=True)


def _halfback_flow_provenance(n: int, seed: int,
                              provenance: bool) -> Tuple[float, int]:
    """One end-to-end Halfback flow with/without ``sched.exec``
    provenance recording; ops = sim events.

    The off variant is the instrumented-but-dormant hot path (the
    per-event ``if prov`` check plus the per-schedule parent-stamp
    guard) — the configuration every non-hb run pays, gated at <2%
    against the pre-provenance baseline.  The on variant streams one
    provenance record per executed event into an enabled recorder (ring
    mode, sink-free) and is the hb observatory's cost multiplier.
    """
    from repro.net.topology import access_network
    from repro.protocols.registry import create_sender
    from repro.sim.simulator import Simulator
    from repro.sim.trace import TraceRecorder
    from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
    from repro.transport.receiver import Receiver
    from repro.units import MSS, kb, mbps, ms

    trace = (TraceRecorder(enabled=True, provenance=True, max_records=4000)
             if provenance else None)
    sim = Simulator(seed=seed, trace=trace)
    net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                         rtt=ms(20), buffer_bytes=kb(115))
    sender_host, receiver_host = net.pair(0)
    spec = FlowSpec(next_flow_id(), sender_host.name, receiver_host.name,
                    size=n * MSS, protocol="halfback")
    Receiver(sim, receiver_host, spec.flow_id)
    sender = create_sender(sim, sender_host, spec,
                           record=FlowRecord(spec))
    sender.start()
    started = time.perf_counter()
    sim.run(until=300.0)
    elapsed = time.perf_counter() - started
    return elapsed, _logical_events(sim)


def _sched_provenance_off(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_provenance(n, seed, provenance=False)


def _sched_provenance_on(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_provenance(n, seed, provenance=True)


def _halfback_flow_chaos(n: int, seed: int,
                         profile: Optional[str]) -> Tuple[float, int]:
    """One end-to-end Halfback flow, optionally under a chaos profile.

    ``flow_chaos_on / flow_chaos_off`` is the impairment pipeline's
    per-event cost multiplier; the off variant pays exactly one falsy
    ``link._impairments`` check per packet hop — the cost the <2%
    overhead gate bounds.
    """
    from repro.net.topology import access_network
    from repro.protocols.registry import create_sender
    from repro.sim.simulator import Simulator
    from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
    from repro.transport.receiver import Receiver
    from repro.units import MSS, kb, mbps, ms

    sim = Simulator(seed=seed)
    net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                         rtt=ms(20), buffer_bytes=kb(115))
    if profile is not None:
        from repro.chaos import get_profile

        get_profile(profile, seed=seed).apply(net)
    sender_host, receiver_host = net.pair(0)
    spec = FlowSpec(next_flow_id(), sender_host.name, receiver_host.name,
                    size=n * MSS, protocol="halfback")
    Receiver(sim, receiver_host, spec.flow_id)
    sender = create_sender(sim, sender_host, spec, record=FlowRecord(spec))
    sender.start()
    started = time.perf_counter()
    sim.run(until=300.0)
    return time.perf_counter() - started, _logical_events(sim)


def _flow_chaos_off(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_chaos(n, seed, profile=None)


def _flow_chaos_on(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_chaos(n, seed, profile="wifi-bursty")


def _sketch_insert(n: int, seed: int) -> Tuple[float, int]:
    """Per-value cost of the mergeable quantile sketch — the price every
    completed flow pays when streaming aggregation is on."""
    from repro.obs.sketch import QuantileSketch

    rng = random.Random(seed)
    # FCT-shaped values: tenths of a millisecond to tens of seconds.
    values = [rng.lognormvariate(-3.0, 2.0) for _ in range(n)]
    sketch = QuantileSketch()
    started = time.perf_counter()
    for value in values:
        sketch.insert(value)
    return time.perf_counter() - started, n


def _sketch_merge(n: int, seed: int) -> Tuple[float, int]:
    """Cost of folding shard sketches together (the `--jobs N` reduce
    step); ops = shard merges performed."""
    from repro.obs.sketch import QuantileSketch

    rng = random.Random(seed)
    n_shards = 32
    shards = []
    for _ in range(n_shards):
        shard = QuantileSketch()
        for _ in range(2_000):
            shard.insert(rng.lognormvariate(-3.0, 2.0))
        shards.append(shard)
    merges = 0
    started = time.perf_counter()
    while merges < n:
        target = QuantileSketch()
        for shard in shards:
            target.merge(shard)
            merges += 1
    return time.perf_counter() - started, merges


def _halfback_flow_obs(n: int, seed: int, observed: bool) -> Tuple[float, int]:
    """One end-to-end Halfback flow via the experiment runner, with the
    streaming observatory on or off.

    The on variant activates a progress plane (rendering disabled) with
    a live shard reporter and streams the finished record into a
    :class:`~repro.obs.aggregate.StreamingFlowAggregator`, so
    ``flow_obs_on / flow_obs_off`` is the observatory's per-event cost
    multiplier — and the off variant pays exactly the ambient-reporter
    ``None`` check the <2% overhead gate bounds.
    """
    import contextlib

    from repro.experiments.runner import ScheduledFlow, TrafficRunner
    from repro.net.topology import access_network
    from repro.sim.simulator import Simulator
    from repro.units import MSS, kb, mbps, ms

    if observed:
        from repro.obs import progress as progress_mod
        from repro.obs.aggregate import StreamingFlowAggregator

        plane = progress_mod.ProgressPlane(stream=None)
        session = progress_mod.reporting(
            progress_mod.ShardReporter(0, plane.apply))
    else:
        session = contextlib.nullcontext()
    with session:
        sim = Simulator(seed=seed)
        net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                             rtt=ms(20), buffer_bytes=kb(115))
        runner = TrafficRunner(sim, net)
        runner.schedule([ScheduledFlow(time=0.0, size=n * MSS,
                                       protocol="halfback")])
        started = time.perf_counter()
        runner.run()
        if observed:
            StreamingFlowAggregator().observe_all(runner.drain_records())
        elapsed = time.perf_counter() - started
    return elapsed, _logical_events(sim)


def _flow_obs_off(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_obs(n, seed, observed=False)


def _flow_obs_on(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_obs(n, seed, observed=True)


def _halfback_flow_breakdown(n: int, seed: int,
                             observed: bool) -> Tuple[float, int]:
    """One runner flow with FCT attribution on or off.

    The on variant runs under a :class:`~repro.obs.critical.
    BreakdownSession` (lineage trace on, span builder classifying every
    packet event), so ``flow_breakdown_on / flow_breakdown_off`` is the
    attribution pipeline's per-event cost multiplier — and the off
    variant pays exactly one ``ambient.breakdown`` check per completed
    flow, the cost the <2% overhead gate bounds.
    """
    import contextlib

    from repro.experiments.runner import ScheduledFlow, TrafficRunner
    from repro.net.topology import access_network
    from repro.sim.simulator import Simulator
    from repro.units import MSS, kb, mbps, ms

    if observed:
        from repro.obs.critical import BreakdownSession

        session = BreakdownSession()
    else:
        session = contextlib.nullcontext()
    with session:
        sim = Simulator(seed=seed)
        net = access_network(sim, n_pairs=1, bottleneck_rate=mbps(50),
                             rtt=ms(20), buffer_bytes=kb(115))
        runner = TrafficRunner(sim, net)
        runner.schedule([ScheduledFlow(time=0.0, size=n * MSS,
                                       protocol="halfback")])
        started = time.perf_counter()
        runner.run()
        elapsed = time.perf_counter() - started
    if observed and not session.aggregate.flows:  # pragma: no cover
        raise RuntimeError("breakdown benchmark observed no flows")
    return elapsed, _logical_events(sim)


def _flow_breakdown_off(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_breakdown(n, seed, observed=False)


def _flow_breakdown_on(n: int, seed: int) -> Tuple[float, int]:
    return _halfback_flow_breakdown(n, seed, observed=True)


MICRO_BENCHMARKS: Dict[str, MicroBenchmark] = {
    bench.name: bench for bench in (
        MicroBenchmark("scheduler_push_pop",
                       "EventScheduler.push then drain via pop",
                       _scheduler_push_pop, default_n=50_000),
        MicroBenchmark("scheduler_cancel_churn",
                       "push with 50% lazy cancellation (RTO-timer churn)",
                       _scheduler_cancel_churn, default_n=50_000),
        MicroBenchmark("queue_droptail",
                       "DropTailQueue enqueue/dequeue with tail drops",
                       _queue_droptail, default_n=50_000),
        MicroBenchmark("queue_red",
                       "REDQueue enqueue/dequeue with probabilistic AQM",
                       _queue_red, default_n=50_000),
        MicroBenchmark("sender_ack_processing",
                       "TCP sender per-ACK bookkeeping + window send",
                       _sender_ack_processing, default_n=4_000),
        MicroBenchmark("scoreboard_array_ack",
                       "array-backed SendScoreboard mark_sent + on_ack "
                       "(struct-of-arrays columns, no sender around it)",
                       _scoreboard_array_ack, default_n=20_000),
        MicroBenchmark("link_deliver",
                       "per-packet link datapath: admit, serialize, "
                       "deliver (train batching disabled)",
                       _link_deliver, default_n=20_000),
        MicroBenchmark("link_deliver_train",
                       "batched link datapath: one train plan per "
                       "back-to-back run (same workload as link_deliver)",
                       _link_deliver_train, default_n=20_000),
        MicroBenchmark("trace_sink_serialization",
                       "JSONL trace-sink write of schema-shaped records",
                       _trace_sink_serialization, default_n=20_000),
        MicroBenchmark("flow_audit_off",
                       "end-to-end Halfback flow, auditing off (baseline)",
                       _flow_audit_off, default_n=1_000),
        MicroBenchmark("flow_audit_on",
                       "end-to-end Halfback flow under the invariant "
                       "auditor (lineage + checkers)",
                       _flow_audit_on, default_n=1_000),
        MicroBenchmark("sched_provenance_off",
                       "end-to-end Halfback flow, provenance dormant "
                       "(default hot path)",
                       _sched_provenance_off, default_n=1_000),
        MicroBenchmark("sched_provenance_on",
                       "end-to-end Halfback flow emitting sched.exec "
                       "provenance per event",
                       _sched_provenance_on, default_n=1_000),
        MicroBenchmark("flow_chaos_off",
                       "end-to-end Halfback flow, empty impairment "
                       "pipeline (chaos-off fast path)",
                       _flow_chaos_off, default_n=1_000),
        MicroBenchmark("flow_chaos_on",
                       "end-to-end Halfback flow under the wifi-bursty "
                       "chaos profile",
                       _flow_chaos_on, default_n=1_000),
        MicroBenchmark("sketch_insert",
                       "QuantileSketch.insert of FCT-shaped values",
                       _sketch_insert, default_n=200_000),
        MicroBenchmark("sketch_merge",
                       "QuantileSketch.merge across 32 populated shards",
                       _sketch_merge, default_n=2_000),
        MicroBenchmark("flow_obs_off",
                       "runner flow, streaming observatory off (ambient "
                       "no-op fast path)",
                       _flow_obs_off, default_n=1_000),
        MicroBenchmark("flow_obs_on",
                       "runner flow with live shard reporter + streaming "
                       "FCT aggregation",
                       _flow_obs_on, default_n=1_000),
        MicroBenchmark("flow_breakdown_off",
                       "runner flow, FCT attribution off (ambient "
                       "no-op fast path)",
                       _flow_breakdown_off, default_n=1_000),
        MicroBenchmark("flow_breakdown_on",
                       "runner flow under a BreakdownSession (lineage "
                       "trace + critical-path span builder)",
                       _flow_breakdown_on, default_n=1_000),
    )
}


def run_micro_benchmark(name: str, repetitions: int = 5, warmup: int = 1,
                        n: Optional[int] = None, seed: int = 42
                        ) -> Dict[str, object]:
    """Run one microbenchmark; returns its JSON-ready stats block."""
    bench = MICRO_BENCHMARKS[name]
    ops_n = n if n is not None else bench.default_n
    for _ in range(max(0, warmup)):
        bench.runner(ops_n, seed)
    per_op_ns = []
    ops_seen = None
    for _ in range(max(1, repetitions)):
        elapsed, ops = bench.runner(ops_n, seed)
        ops_seen = ops
        per_op_ns.append((elapsed / ops) * 1e9 if ops else 0.0)
    return {
        "description": bench.description,
        "n": ops_n,
        "ops": ops_seen,
        "repetitions": max(1, repetitions),
        "warmup": max(0, warmup),
        "min_ns_per_op": min(per_op_ns),
        "median_ns_per_op": statistics.median(per_op_ns),
        "mean_ns_per_op": statistics.fmean(per_op_ns),
    }


def run_micro_benchmarks(names: Optional[Sequence[str]] = None,
                         repetitions: int = 5, warmup: int = 1,
                         seed: int = 42,
                         progress: Optional[Callable[[str], None]] = None
                         ) -> Dict[str, Dict[str, object]]:
    """Run several microbenchmarks; ``names=None`` runs the catalog."""
    selected = list(names) if names is not None else list(MICRO_BENCHMARKS)
    out: Dict[str, Dict[str, object]] = {}
    for name in selected:
        if name not in MICRO_BENCHMARKS:
            raise KeyError(f"unknown microbenchmark {name!r}; "
                           f"known: {', '.join(sorted(MICRO_BENCHMARKS))}")
        if progress is not None:
            progress(name)
        out[name] = run_micro_benchmark(name, repetitions=repetitions,
                                        warmup=warmup, seed=seed)
    return out
