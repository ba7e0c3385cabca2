"""Canonical scenario builders shared by the figure harnesses.

Everything here is parameterized but defaults to the paper's settings:
the Fig. 4 Emulab topology (15 Mbps bottleneck, 60 ms RTT, 115 KB =
1 BDP drop-tail buffer, 1 Gbps edges), 100 KB short flows, exponential
interarrival times, and schedules that are *identical across protocols
for a given seed* so head-to-head curves are comparable point-by-point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ExperimentError
from repro.net.topology import AccessNetwork, access_network
from repro.planetlab.paths import PathSpec, build_path
from repro.protocols.registry import ProtocolContext
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.transport.config import TransportConfig
from repro.transport.flow import FlowRecord
from repro.experiments.runner import ScheduledFlow, TrafficRunner, launch_flow
from repro.units import gbps, kb, mb, mbps, ms
from repro.workloads.arrivals import generate_arrivals, rate_for_utilization
from repro.workloads.sizes import FixedSize, SizeDistribution

__all__ = [
    "EmulabParams",
    "EMULAB",
    "SHORT_FLOW_BYTES",
    "LONG_FLOW_BYTES",
    "build_emulab",
    "short_flow_schedule",
    "mixed_schedule",
    "run_workload",
    "run_utilization_point_stats",
    "run_single_path_flow",
    "PROTOCOLS_MAIN",
    "PROTOCOLS_ALL",
]

#: The paper's default short flow (§4.1).
SHORT_FLOW_BYTES = kb(100)
#: The paper's long background flows (§4.3.2).
LONG_FLOW_BYTES = mb(100)

#: The six schemes most figures compare.
PROTOCOLS_MAIN = ("tcp", "tcp-10", "reactive", "proactive", "jumpstart", "halfback")
#: All eight evaluated schemes.
PROTOCOLS_ALL = ("tcp", "tcp-10", "tcp-cache", "reactive", "proactive",
                 "jumpstart", "pcp", "halfback")


@dataclass(frozen=True)
class EmulabParams:
    """The Fig. 4 topology constants."""

    bottleneck_rate: float = mbps(15)
    rtt: float = ms(60)
    buffer_bytes: int = kb(115)
    edge_rate: float = gbps(1)

    def build(self, sim: Simulator, n_pairs: int) -> AccessNetwork:
        """Materialize the topology on ``sim``."""
        return access_network(
            sim,
            n_pairs=n_pairs,
            bottleneck_rate=self.bottleneck_rate,
            rtt=self.rtt,
            buffer_bytes=self.buffer_bytes,
            edge_rate=self.edge_rate,
        )


EMULAB = EmulabParams()


def build_emulab(
    sim: Simulator,
    n_pairs: int = 16,
    buffer_bytes: Optional[int] = None,
    bottleneck_rate: Optional[float] = None,
    rtt: Optional[float] = None,
) -> AccessNetwork:
    """The Fig. 4 topology with optional single-parameter overrides."""
    params = EmulabParams(
        bottleneck_rate=bottleneck_rate if bottleneck_rate is not None else EMULAB.bottleneck_rate,
        rtt=rtt if rtt is not None else EMULAB.rtt,
        buffer_bytes=buffer_bytes if buffer_bytes is not None else EMULAB.buffer_bytes,
    )
    return params.build(sim, n_pairs)


def short_flow_schedule(
    protocol: str,
    utilization: float,
    duration: float,
    seed: int,
    sizes: Optional[SizeDistribution] = None,
    bottleneck_rate: float = EMULAB.bottleneck_rate,
) -> List[ScheduledFlow]:
    """Poisson short-flow schedule hitting ``utilization`` on average.

    The schedule depends only on ``(utilization, duration, seed, sizes)``
    — not the protocol — so swapping ``protocol`` replays identical
    arrivals (§4.3.2's methodology).
    """
    if sizes is None:
        sizes = FixedSize(SHORT_FLOW_BYTES)
    rng = random.Random(derive_seed(seed, f"schedule:{utilization:.4f}"))
    rate = rate_for_utilization(utilization, bottleneck_rate, sizes.mean())
    arrivals = generate_arrivals(rng, duration, rate, sizes)
    return [ScheduledFlow(a.time, a.size, protocol, kind="short")
            for a in arrivals]


def mixed_schedule(
    short_protocol: str,
    utilization: float,
    duration: float,
    seed: int,
    short_fraction: float = 0.10,
    short_sizes: Optional[SizeDistribution] = None,
    long_size: int = LONG_FLOW_BYTES,
    long_protocol: str = "tcp",
    bottleneck_rate: float = EMULAB.bottleneck_rate,
) -> List[ScheduledFlow]:
    """Short/long traffic mix (§4.3.2: 10 % short bytes, 90 % long).

    Long flows always run ``long_protocol`` (TCP); the byte split fixes
    each class's arrival rate.
    """
    if not 0 < short_fraction < 1:
        raise ExperimentError("short_fraction must be in (0, 1)")
    if short_sizes is None:
        short_sizes = FixedSize(SHORT_FLOW_BYTES)
    rng = random.Random(derive_seed(seed, f"mixed:{utilization:.4f}"))
    short_rate = rate_for_utilization(
        utilization * short_fraction, bottleneck_rate, short_sizes.mean()
    )
    long_rate = rate_for_utilization(
        utilization * (1 - short_fraction), bottleneck_rate, float(long_size)
    )
    shorts = [
        ScheduledFlow(a.time, a.size, short_protocol, kind="short")
        for a in generate_arrivals(rng, duration, short_rate, short_sizes)
    ]
    longs = [
        ScheduledFlow(a.time, long_size, long_protocol, kind="long")
        for a in generate_arrivals(rng, duration, long_rate, FixedSize(long_size))
    ]
    if not longs:
        # Low long-flow rates can draw an empty Poisson sample on short
        # horizons; the mix must still contain its background elephant.
        longs = [ScheduledFlow(duration * 0.05, long_size, long_protocol,
                               kind="long")]
    return sorted(shorts + longs, key=lambda f: f.time)


def run_workload(
    schedule: Sequence[ScheduledFlow],
    seed: int,
    n_pairs: int = 16,
    buffer_bytes: Optional[int] = None,
    bottleneck_rate: Optional[float] = None,
    rtt: Optional[float] = None,
    drain_time: float = 30.0,
    config: Optional[TransportConfig] = None,
    context: Optional[ProtocolContext] = None,
) -> FctCollector:
    """Run one schedule on a fresh Emulab topology; returns the records."""
    from repro.metrics.fct import FctCollector

    sim = Simulator(seed=seed)
    net = build_emulab(sim, n_pairs=n_pairs, buffer_bytes=buffer_bytes,
                       bottleneck_rate=bottleneck_rate, rtt=rtt)
    runner = TrafficRunner(sim, net, config=config, context=context,
                           drain_time=drain_time)
    runner.schedule(schedule)
    runner.run()
    return FctCollector(runner.records)


def run_utilization_point_stats(
    protocol: str,
    utilization: float,
    duration: float = 30.0,
    seed: int = 0,
    sizes: Optional[SizeDistribution] = None,
    n_pairs: int = 16,
    buffer_bytes: Optional[int] = None,
    drain_time: float = 30.0,
    config: Optional[TransportConfig] = None,
    penalty: Optional[float] = None,
) -> FlowStats:
    """One (protocol, utilization) sweep point with all-short traffic.

    Every record is folded into a constant-size
    :class:`~repro.obs.aggregate.FlowStats` (records are drained, not
    returned), so a sweep worker's result payload is a few hundred
    bytes however many flows ran.  The fold mirrors
    :class:`~repro.metrics.fct.FctCollector` operation for operation,
    so the penalized mean and completion rate are what a record list
    would give.
    """
    from repro.obs.aggregate import FlowStats

    schedule = short_flow_schedule(protocol, utilization, duration, seed,
                                   sizes=sizes)
    sim = Simulator(seed=derive_seed(seed, protocol))
    net = build_emulab(sim, n_pairs=n_pairs, buffer_bytes=buffer_bytes)
    runner = TrafficRunner(sim, net, config=config, drain_time=drain_time)
    runner.schedule(schedule)
    runner.run()
    return FlowStats(penalty=penalty).observe_all(runner.drain_records())


def run_single_path_flow(
    spec: PathSpec,
    protocol: str,
    size: int = SHORT_FLOW_BYTES,
    seed: int = 0,
    config: Optional[TransportConfig] = None,
) -> FlowRecord:
    """One flow over one synthetic Internet path (PlanetLab trials).

    The simulator seed mixes the path id but *not* the protocol, so the
    random-loss coin flips are identical across protocols on a path.
    """
    sim = Simulator(seed=derive_seed(seed, f"path:{spec.pair_id}"))
    net = build_path(sim, spec)
    record = launch_flow(sim, net, protocol, size, config=config)
    max_duration = (config or TransportConfig()).max_flow_duration
    sim.run(until=max_duration + 1.0)
    record.extra["drops"] = sim.flow_drops.get(record.spec.flow_id, 0)
    return record
