"""Layer probes: fixed seeded inputs, direct calls to public functions.

Each probe times one layer's public operations in isolation and reports
nanoseconds per operation, the minimum of :data:`REPEATS` runs (the
least-disturbed one on a shared sandbox).  Inputs are fixed — they do
not follow ``--seed`` — and the loops live here, so a later PR can move
a probe only by changing the cost of the operation it calls.

The in-order / with-holes pairs are the "same layer, other use" guard
at micro scale: ``*_cumack`` and ``*_inorder`` should track
``paths_clean``; ``*_sack`` and ``*_reordered`` should track
``paths_lossy``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

from repro.core.ropr import RoprScheduler
from repro.experiments.scenarios import run_single_path_flow
from repro.net.link import Link, batching_enabled, set_batching
from repro.net.packet import Packet, PacketType
from repro.net.queue import DropTailQueue
from repro.obs.sketch import QuantileSketch
from repro.parallel import fanout_map
from repro.sim.event import Event
from repro.sim.scheduler import EventScheduler
from repro.sim.simulator import Simulator
from repro.transport.flow import segments_for
from repro.transport.sacks import ReceiveTracker, SendScoreboard
from repro.units import gbps, us

from .workloads import FLOW_BYTES, PATH_PROTOCOLS, clean_paths, fingerprint

__all__ = ["PROBES", "run_probes", "parallel_probe"]

PROBE_SEED = 20150901
REPEATS = 5
#: Operations per probe run: long enough to dwarf the clock reads.
N = 20_000
#: The transport-state probes work on flow-sized structures (a 100 KB
#: flow's segments), as the workloads do: their cost per operation
#: depends on how many segments and holes one flow has.
SEGMENTS = segments_for(FLOW_BYTES)
FLOWS = N // SEGMENTS
#: One segment in ten goes missing in the with-holes probes.
HOLE_EVERY = 10
#: Paths (x3 protocols = 120 flows) in the ``--jobs`` scaling probe.
PARALLEL_PATHS = 40
NOOP_TASKS = 400

#: A probe returns (elapsed seconds, operations timed).
Probe = Callable[[], Tuple[float, int]]


def _noop() -> None:
    pass


def _packets(n: int) -> List[Packet]:
    return [Packet(src="probe", dst="sink", flow_id=1, kind=PacketType.DATA,
                   size=1500, seq=i) for i in range(n)]


def _holed_arrivals() -> List[int]:
    """One flow's arrival order with holes: every :data:`HOLE_EVERY`-th
    segment is skipped on the first pass and arrives (retransmitted) at
    the end."""
    holes = [seq for seq in range(SEGMENTS) if seq % HOLE_EVERY == 0]
    return [seq for seq in range(SEGMENTS) if seq % HOLE_EVERY] + holes


def _push_pop() -> Tuple[float, int]:
    rng = random.Random(PROBE_SEED)
    times = [rng.random() for _ in range(N)]
    scheduler = EventScheduler()
    started = time.perf_counter()
    for when in times:
        scheduler.push(Event(when, _noop))
    while scheduler.pop() is not None:
        pass
    return time.perf_counter() - started, 2 * N


def _timer_restart() -> Tuple[float, int]:
    """RTO-style churn: one timer re-armed on every (imaginary) ACK."""
    sim = Simulator(seed=PROBE_SEED)
    timer = sim.timer(_noop, name="probe")
    started = time.perf_counter()
    for i in range(N):
        timer.restart(1.0 + i * 1e-6)
    sim.run()
    return time.perf_counter() - started, N


def _queue_ops() -> Tuple[float, int]:
    """64 KB drop-tail queue, dequeued every third offer, so the loop
    pays admits, tail drops and dequeues."""
    packets = _packets(N)
    queue = DropTailQueue(capacity_bytes=64_000)
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


class _Sink:
    name = "sink"

    def __init__(self) -> None:
        self.received = 0

    def receive(self, packet) -> None:
        self.received += 1


def _link_drain(batched: bool) -> Tuple[float, int]:
    previous = batching_enabled()
    set_batching(batched)
    try:
        sim = Simulator(seed=PROBE_SEED)
        sink = _Sink()
        link = Link(sim, "probe->sink", sink, rate=gbps(10), delay=us(10))
        packets = _packets(N)
        started = time.perf_counter()
        for packet in packets:
            link.send(packet)
        sim.run()
        elapsed = time.perf_counter() - started
    finally:
        set_batching(previous)
    if sink.received != N:
        raise RuntimeError(f"link probe lost packets: {sink.received}/{N}")
    return elapsed, N


def _link_batched() -> Tuple[float, int]:
    return _link_drain(True)


def _link_reference() -> Tuple[float, int]:
    return _link_drain(False)


def _scoreboard_cumack() -> Tuple[float, int]:
    scoreboards = [SendScoreboard(SEGMENTS) for _ in range(FLOWS)]
    started = time.perf_counter()
    for scoreboard in scoreboards:
        for seq in range(SEGMENTS):
            scoreboard.mark_sent(seq, time=seq * 1e-4)
        for cum in range(1, SEGMENTS + 1):
            scoreboard.on_ack(cum, now=(SEGMENTS + cum) * 1e-4)
    elapsed = time.perf_counter() - started
    if not all(scoreboard.all_acked for scoreboard in scoreboards):
        raise RuntimeError("cum-ACK scoreboard probe did not complete")
    return elapsed, FLOWS * 2 * SEGMENTS


def _holed_acks() -> List[Tuple[int, tuple]]:
    """The (cum, SACK blocks) stream a receiver emits for
    :func:`_holed_arrivals`."""
    tracker = ReceiveTracker(SEGMENTS)
    acks = []
    for seq in _holed_arrivals():
        tracker.add(seq)
        acks.append((tracker.cum, tracker.sack_blocks()))
    return acks


def _scoreboard_sack() -> Tuple[float, int]:
    acks = _holed_acks()
    scoreboards = [SendScoreboard(SEGMENTS) for _ in range(FLOWS)]
    ops = 0
    started = time.perf_counter()
    for scoreboard in scoreboards:
        for seq in range(SEGMENTS):
            scoreboard.mark_sent(seq, time=seq * 1e-4)
        for i, (cum, sack) in enumerate(acks):
            now = (SEGMENTS + i) * 1e-4
            scoreboard.on_ack(cum, sack, now=now)
            for lost in scoreboard.detect_lost(now=now):
                scoreboard.mark_sent(lost, time=now)
                ops += 1
    elapsed = time.perf_counter() - started
    if not all(scoreboard.all_acked for scoreboard in scoreboards):
        raise RuntimeError("SACK scoreboard probe did not complete")
    return elapsed, ops + FLOWS * (SEGMENTS + len(acks))


def _receive(arrivals: List[int]) -> Tuple[float, int]:
    trackers = [ReceiveTracker(SEGMENTS) for _ in range(FLOWS)]
    started = time.perf_counter()
    for tracker in trackers:
        for i, seq in enumerate(arrivals):
            tracker.add(seq, now=i * 1e-4)
            tracker.sack_blocks()
    elapsed = time.perf_counter() - started
    if not all(tracker.complete for tracker in trackers):
        raise RuntimeError("receiver probe did not complete")
    return elapsed, FLOWS * SEGMENTS


def _receiver_inorder() -> Tuple[float, int]:
    return _receive(list(range(SEGMENTS)))


def _receiver_reordered() -> Tuple[float, int]:
    return _receive(_holed_arrivals())


def _ropr() -> Tuple[float, int]:
    """Reverse-order sweeps over flows whose odd segments are ACKed."""
    acked = bytearray(i % 2 for i in range(SEGMENTS)).__getitem__
    sweeps = [RoprScheduler(SEGMENTS) for _ in range(FLOWS)]
    started = time.perf_counter()
    for ropr in sweeps:
        while ropr.next_candidate(acked) is not None:
            pass
    elapsed = time.perf_counter() - started
    return elapsed, sum(ropr.proposed_count for ropr in sweeps)


def _sketch_insert() -> Tuple[float, int]:
    rng = random.Random(PROBE_SEED)
    values = [rng.lognormvariate(-2.0, 1.0) for _ in range(N)]
    sketch = QuantileSketch()
    started = time.perf_counter()
    for value in values:
        sketch.insert(value)
    return time.perf_counter() - started, N


PROBES: Dict[str, Probe] = {
    "sim.push_pop_ns": _push_pop,
    "sim.timer_restart_ns": _timer_restart,
    "net.queue_ns_per_op": _queue_ops,
    "net.link_ns_per_packet_batched": _link_batched,
    "net.link_ns_per_packet_reference": _link_reference,
    "transport.scoreboard_cumack_ns": _scoreboard_cumack,
    "transport.scoreboard_sack_ns": _scoreboard_sack,
    "transport.receiver_inorder_ns": _receiver_inorder,
    "transport.receiver_reordered_ns": _receiver_reordered,
    "core.ropr_ns_per_candidate": _ropr,
    "obs.sketch_insert_ns": _sketch_insert,
}


def run_probes() -> Dict[str, float]:
    """Every probe, min-of-:data:`REPEATS`, in ns per operation."""
    results = {}
    for name, probe in PROBES.items():
        best = float("inf")
        for _ in range(REPEATS):
            elapsed, ops = probe()
            best = min(best, elapsed / ops * 1e9)
        results[name] = best
    return results


def _flow_task(task):
    spec, protocol, seed = task
    return run_single_path_flow(spec, protocol, size=FLOW_BYTES, seed=seed)


def _noop_task(item: int) -> int:
    return item


def parallel_probe(seed: int) -> Dict[str, float]:
    """``fanout_map`` at ``jobs=1`` against ``jobs=2`` over a slice of
    ``paths_clean``, and its per-task dispatch cost over no-op tasks."""
    tasks = [(spec, protocol, seed) for protocol in PATH_PROTOCOLS
             for spec in clean_paths(seed, PARALLEL_PATHS)]
    started = time.perf_counter()
    serial = fanout_map(_flow_task, tasks, jobs=1)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    fanned = fanout_map(_flow_task, tasks, jobs=2)
    fanned_s = time.perf_counter() - started
    started = time.perf_counter()
    fanout_map(_noop_task, range(NOOP_TASKS), jobs=2)
    dispatch_s = time.perf_counter() - started
    return {
        "parallel.jobs2_speedup": serial_s / fanned_s,
        "parallel.dispatch_us_per_task": dispatch_s / NOOP_TASKS * 1e6,
        "parallel.fingerprint_match":
            int(fingerprint(serial) == fingerprint(fanned)),
    }
