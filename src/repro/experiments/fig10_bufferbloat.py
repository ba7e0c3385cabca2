"""Fig. 10: effect of router buffer size (bufferbloat).

One long background TCP flow keeps the bottleneck queue occupied while
short flows arrive (paper: every 10 s, 600 s total).  Swept over buffer
sizes from tens of KB to 600 KB, two observables per scheme:

* (a) mean short-flow FCT — TCP-family FCT inflates with the buffer
  (bufferbloat adds ~1 s for TCP) while JumpStart/Halfback/TCP-10 rise
  only ~500 ms because they finish in fewer RTTs; with *small* buffers
  the aggressive schemes suffer start-up losses, where Halfback's ROPR
  keeps its FCT up to ~45 % below JumpStart's;
* (b) mean normal retransmissions — JumpStart's burst recovery costs
  ~10x Halfback's when buffers are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.metrics.fct import FctCollector
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.experiments.report import render_table
from repro.experiments.runner import ScheduledFlow, TrafficRunner, launch_flow
from repro.transport.config import TransportConfig
from repro.experiments.scenarios import SHORT_FLOW_BYTES, build_emulab
from repro.units import kb
from repro.workloads.arrivals import PoissonArrivals
import random

__all__ = ["DEFAULT_BUFFERS", "Fig10Result", "run", "format_report"]

DEFAULT_BUFFERS = tuple(kb(s) for s in (20, 50, 115, 230, 400, 600))
DEFAULT_PROTOCOLS = ("tcp", "tcp-10", "tcp-cache", "reactive", "proactive",
                     "jumpstart", "pcp", "halfback")


@dataclass
class Fig10Result:
    """Mean FCT and retransmissions per (scheme, buffer size); None for
    a cell that drew no short flow (a short run's Poisson arrivals can
    leave a buffer size empty)."""

    buffers: List[int]
    mean_fct: Dict[str, List[Optional[float]]]    # seconds, same order
    mean_retransmissions: Dict[str, List[Optional[float]]]

    def fct_increase(self, protocol: str) -> float:
        """FCT growth from the smallest to the largest buffer (seconds)."""
        curve = self.mean_fct[protocol]
        return curve[-1] - curve[0]


def _one_cell(
    protocol: str,
    buffer_bytes: int,
    duration: float,
    mean_interval: float,
    seed: int,
) -> FctCollector:
    sim = Simulator(seed=derive_seed(seed, f"fig10:{protocol}:{buffer_bytes}"))
    net = build_emulab(sim, n_pairs=8, buffer_bytes=buffer_bytes)
    runner = TrafficRunner(sim, net, drain_time=20.0)
    # The long-lived background TCP flow owns pair 0.  It gets a large
    # advertised window so its congestion window — not flow control —
    # fills whatever buffer the router has: that *is* bufferbloat.
    background_size = int(net.bottleneck_rate * (duration + 40.0))
    bulk_config = TransportConfig(flow_control_window=4_000_000)
    launch_flow(sim, net, "tcp", background_size, pair_index=0,
                kind="long", config=bulk_config)
    rng = random.Random(derive_seed(seed, f"fig10-arrivals:{buffer_bytes}"))
    arrivals = PoissonArrivals(1.0 / mean_interval).times(rng, duration)
    shorts = [ScheduledFlow(2.0 + t, SHORT_FLOW_BYTES, protocol, kind="short")
              for t in arrivals]
    runner.schedule(shorts)
    runner.run()
    return FctCollector(runner.records).filtered(kind="short")


def run(
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    buffers: Sequence[int] = DEFAULT_BUFFERS,
    duration: float = 60.0,
    mean_interval: float = 5.0,
    seed: int = 0,
) -> Fig10Result:
    """Sweep buffer sizes for each scheme.

    Paper scale is ``duration=600, mean_interval=10``; defaults are a
    laptop-friendly tenth with a denser arrival process for sample
    count.
    """
    mean_fct: Dict[str, List[Optional[float]]] = {p: [] for p in protocols}
    mean_rtx: Dict[str, List[Optional[float]]] = {p: [] for p in protocols}
    for protocol in protocols:
        for buffer_bytes in buffers:
            collector = _one_cell(protocol, buffer_bytes, duration,
                                  mean_interval, seed)
            empty = not collector.records
            mean_fct[protocol].append(
                None if empty else collector.mean_fct(penalty=60.0))
            mean_rtx[protocol].append(
                None if empty else collector.mean_normal_retransmissions())
    return Fig10Result(buffers=list(buffers), mean_fct=mean_fct,
                       mean_retransmissions=mean_rtx)


def format_report(result: Fig10Result) -> str:
    """Both panels as tables (``-`` marks a cell with no short flow)."""
    headers = ["scheme"] + [f"{b // 1000}KB" for b in result.buffers]
    fct_rows = [
        [p] + [f"{v * 1000:.0f}" if v is not None else "-" for v in curve]
        for p, curve in result.mean_fct.items()
    ]
    rtx_rows = [
        [p] + [f"{v:.1f}" if v is not None else "-" for v in curve]
        for p, curve in result.mean_retransmissions.items()
    ]
    return "\n\n".join([
        render_table(headers, fct_rows,
                     title="Fig. 10(a) — mean short-flow FCT (ms) vs buffer"),
        render_table(headers, rtx_rows,
                     title="Fig. 10(b) — mean normal retransmissions vs buffer"),
    ])
