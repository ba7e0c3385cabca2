"""Fig. 1: the latency-vs-safety tradeoff scatter.

Each scheme becomes one point: x = feasible capacity under the
pessimistic all-short-flow workload (the Fig. 12 sweep), y = common-case
(low-load) flow completion time.  The paper's claim: Halfback sits on a
strictly better point than every prior scheme — lower FCT than
JumpStart *and* markedly higher feasible capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.fig12_utilization import (
    DEFAULT_UTILIZATIONS,
    UtilizationSweep,
    sweep_protocols,
)
from repro.experiments.report import render_table
from repro.experiments.scenarios import PROTOCOLS_ALL

__all__ = ["Fig1Result", "run", "format_report"]


@dataclass
class Fig1Result:
    """One (feasible capacity, low-load FCT) point per scheme."""

    points: Dict[str, Tuple[float, float]]   # scheme -> (capacity, fct s)
    sweep: UtilizationSweep

    def dominated_by_halfback(self) -> Dict[str, bool]:
        """Schemes strictly dominated by Halfback (worse or equal on both
        axes, worse on at least one)."""
        if "halfback" not in self.points:
            return {}
        hx, hy = self.points["halfback"]
        out = {}
        for scheme, (x, y) in self.points.items():
            if scheme == "halfback":
                continue
            out[scheme] = x <= hx and y >= hy and (x < hx or y > hy)
        return out


def run(
    protocols: Sequence[str] = PROTOCOLS_ALL,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    duration: float = 15.0,
    seed: int = 0,
    n_pairs: int = 16,
    sweep: Optional[UtilizationSweep] = None,
    jobs: int = 1,
) -> Fig1Result:
    """Derive the tradeoff scatter (reuses a Fig. 12 sweep if given)."""
    if sweep is None:
        sweep = sweep_protocols(protocols, utilizations=utilizations,
                                duration=duration, seed=seed, n_pairs=n_pairs,
                                jobs=jobs)
    points = {
        protocol: (sweep.feasible[protocol], sweep.low_load_fct(protocol))
        for protocol in sweep.points
    }
    return Fig1Result(points=points, sweep=sweep)


def format_report(result: Fig1Result) -> str:
    """The scatter as rows, sorted by feasible capacity."""
    rows = []
    for scheme, (capacity, fct) in sorted(result.points.items(),
                                          key=lambda kv: -kv[1][0]):
        rows.append([scheme, f"{capacity * 100:.0f}%", f"{fct * 1000:.0f}ms"])
    table = render_table(
        ["scheme", "feasible capacity", "common-case FCT"], rows,
        title="Fig. 1 — latency vs feasible capacity",
    )
    dominated = result.dominated_by_halfback()
    if dominated:
        losers = sorted(s for s, d in dominated.items() if d)
        table += "\nschemes strictly dominated by halfback: " + (
            ", ".join(losers) if losers else "(none)"
        )
    return table
