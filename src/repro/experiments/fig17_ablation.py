"""Fig. 17 (§5): ablation of Halfback's ROPR design decisions.

Sweeps the all-short-flow workload over Halfback and its two ablations
plus the reference schemes, isolating each design choice:

* additional bandwidth — TCP (0 %) vs Halfback (50 %) vs Proactive
  (100 %): paper feasible capacities 90 % / 70 % / ~45 %;
* retransmission direction — Halfback vs Halfback-Forward: forward
  order drops feasible capacity from 70 % to 35 %;
* retransmission rate — Halfback vs Halfback-Burst: line-rate proactive
  retransmission collapses far earlier than the ACK clock.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig12_utilization import (
    DEFAULT_UTILIZATIONS,
    UtilizationSweep,
    sweep_protocols,
)
from repro.experiments.report import render_table

__all__ = ["ABLATION_PROTOCOLS", "run", "format_report"]

ABLATION_PROTOCOLS = (
    "proactive", "tcp", "tcp-10", "halfback-burst", "halfback-forward",
    "jumpstart", "halfback",
)

#: The paper's reported feasible capacities for the §5 discussion.
PAPER_FEASIBLE = {
    "proactive": 0.45, "tcp": 0.90, "tcp-10": 0.85,
    "halfback-forward": 0.35, "halfback-burst": 0.40,  # "significantly smaller"
    "jumpstart": 0.50, "halfback": 0.70,
}


def run(
    protocols: Sequence[str] = ABLATION_PROTOCOLS,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    duration: float = 15.0,
    seed: int = 0,
    n_pairs: int = 16,
    collapse_factor: float = 4.0,
    jobs: int = 1,
) -> UtilizationSweep:
    """The Fig. 17 sweep (same machinery as Fig. 12, ablation schemes)."""
    return sweep_protocols(protocols, utilizations=utilizations,
                           duration=duration, seed=seed, n_pairs=n_pairs,
                           collapse_factor=collapse_factor, jobs=jobs)


def format_report(result: UtilizationSweep) -> str:
    """Low-load FCT and feasible capacity per ablation variant."""
    rows = []
    for protocol, curve in result.points.items():
        rows.append([
            protocol,
            f"{curve[0].mean_fct * 1000:.0f}ms",
            f"{result.feasible[protocol] * 100:.0f}%",
            f"{PAPER_FEASIBLE.get(protocol, 0) * 100:.0f}%",
        ])
    return render_table(
        ["scheme", "low-load mean FCT", "feasible capacity", "paper"],
        rows, title="Fig. 17 — ROPR design-decision ablation",
    )
