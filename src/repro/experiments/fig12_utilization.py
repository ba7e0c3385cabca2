"""Fig. 12: all-short-flow utilization sweep and feasible capacity.

The paper's most demanding scenario: every flow is a 100 KB aggressive
short flow, offered load swept 5 %..90 % in 5 % steps.  Feasible
capacities reported: TCP / TCP-10 / TCP-Cache / Reactive 85-90 %,
Proactive ~45 %, JumpStart ~50 %, Halfback ~70 % (similar to PCP but
with far better FCT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metrics.collapse import SweepPoint, feasible_capacity
from repro.experiments.report import render_table
from repro.experiments.scenarios import PROTOCOLS_ALL, \
    run_utilization_point_stats
from repro.obs.aggregate import StreamingFlowAggregator
from repro.parallel import fanout_map

__all__ = [
    "DEFAULT_UTILIZATIONS",
    "UtilizationSweep",
    "sweep_protocols",
    "run",
    "format_report",
]

DEFAULT_UTILIZATIONS = tuple(round(0.05 * i, 2) for i in range(1, 19))

#: Mean-FCT penalty (seconds) charged to flows that never completed;
#: far above any legitimate short-flow FCT so collapse is unmistakable.
INCOMPLETE_PENALTY = 60.0


@dataclass
class UtilizationSweep:
    """Per-protocol sweep curves plus derived feasible capacities."""

    points: Dict[str, List[SweepPoint]]
    feasible: Dict[str, float]
    collapse_factor: float
    #: Per-protocol streamed statistics: every cell's constant-size
    #: :class:`~repro.obs.aggregate.FlowStats` merged in serial cell
    #: order — the sweep's FCT quantile sketches and fingerprint.
    aggregate: StreamingFlowAggregator = field(
        default_factory=StreamingFlowAggregator)

    def curve(self, protocol: str) -> List[SweepPoint]:
        """The (utilization, mean FCT) curve for one scheme."""
        return self.points[protocol]

    def low_load_fct(self, protocol: str) -> float:
        """Mean FCT at the lowest swept utilization (for Fig. 1)."""
        return self.points[protocol][0].mean_fct


def _run_point_task(task):
    """Picklable per-cell worker for :func:`fanout_map`.

    Returns a constant-size :class:`FlowStats` rather than the per-flow
    record list, so parent memory (and the pickled payload) stays flat
    no matter how many flows a cell ran.
    """
    protocol, utilization, duration, seed, n_pairs, drain_time = task
    return run_utilization_point_stats(
        protocol, utilization, duration=duration, seed=seed,
        n_pairs=n_pairs, drain_time=drain_time,
        penalty=INCOMPLETE_PENALTY,
    )


def sweep_protocols(
    protocols: Sequence[str],
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    duration: float = 15.0,
    seed: int = 0,
    n_pairs: int = 16,
    collapse_factor: float = 4.0,
    drain_time: float = 30.0,
    jobs: int = 1,
) -> UtilizationSweep:
    """Run the all-short-flow sweep for each protocol.

    The arrival schedule at a given utilization is identical across
    protocols (same seed), per the paper's methodology.  Each
    (protocol, utilization) cell is one self-contained simulation, so
    ``jobs > 1`` fans the cells out over worker processes; curves merge
    in the serial order and match a serial run exactly.
    """
    tasks = [(protocol, utilization, duration, seed, n_pairs, drain_time)
             for protocol in protocols for utilization in utilizations]
    cells = fanout_map(_run_point_task, tasks, jobs=jobs)
    points: Dict[str, List[SweepPoint]] = {}
    aggregate = StreamingFlowAggregator(penalty=INCOMPLETE_PENALTY)
    for i, protocol in enumerate(protocols):
        curve: List[SweepPoint] = []
        for j, utilization in enumerate(utilizations):
            stats = cells[i * len(utilizations) + j]
            if not stats.flows:
                # Short (scaled-down) runs can draw zero Poisson
                # arrivals at the lowest loads; the point carries no
                # information, and the schedule is seed-identical
                # across protocols, so skipping keeps curves aligned.
                continue
            curve.append(SweepPoint(
                utilization=utilization,
                mean_fct=stats.mean_fct(penalized=True),
                completion_rate=stats.completion_rate(),
            ))
            # Merge in serial cell order so the sweep aggregate (and
            # its fingerprint) is bit-identical for any --jobs value.
            aggregate.group(protocol).merge(stats)
        points[protocol] = curve
    feasible = {
        protocol: feasible_capacity(curve, factor=collapse_factor)
        for protocol, curve in points.items()
    }
    return UtilizationSweep(points=points, feasible=feasible,
                            collapse_factor=collapse_factor,
                            aggregate=aggregate)


def run(
    protocols: Sequence[str] = PROTOCOLS_ALL,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    duration: float = 15.0,
    seed: int = 0,
    n_pairs: int = 16,
    collapse_factor: float = 4.0,
    jobs: int = 1,
) -> UtilizationSweep:
    """The Fig. 12 sweep over all eight schemes."""
    return sweep_protocols(protocols, utilizations=utilizations,
                           duration=duration, seed=seed, n_pairs=n_pairs,
                           collapse_factor=collapse_factor, jobs=jobs)


def format_report(result: UtilizationSweep) -> str:
    """FCT-vs-utilization rows plus the feasible-capacity line."""
    paper_feasible = {
        "tcp": 0.90, "tcp-10": 0.85, "tcp-cache": 0.85, "reactive": 0.85,
        "proactive": 0.45, "jumpstart": 0.50, "pcp": 0.70, "halfback": 0.70,
    }
    rows = []
    for protocol, curve in result.points.items():
        low = curve[0].mean_fct
        rows.append([
            protocol,
            f"{low * 1000:.0f}ms",
            f"{result.feasible[protocol] * 100:.0f}%",
            f"{paper_feasible.get(protocol, 0) * 100:.0f}%",
        ])
    table = render_table(
        ["scheme", "low-load mean FCT", "feasible capacity", "paper"],
        rows, title="Fig. 12 — all-short-flow utilization sweep",
    )
    parts = [table]
    if result.aggregate.groups:
        parts.append(result.aggregate.render(
            title="Fig. 12 — streamed FCT quantiles"))
        parts.append(f"aggregate fingerprint: "
                     f"{result.aggregate.fingerprint()}")
    return "\n\n".join(parts)
