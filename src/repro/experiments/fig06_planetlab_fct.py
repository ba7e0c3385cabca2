"""Fig. 6: FCT of short flows across the Internet-path population.

Paper headline numbers (2.6 K pairs, 100 KB flows): TCP mean 1883 ms,
JumpStart 905 ms, Halfback 791 ms (13 % below JumpStart); Halfback's
99th-percentile FCT is 27.8 % of TCP's and 87.8 % of JumpStart's.  The
shape to reproduce: Halfback <= JumpStart everywhere with the gap in
the lossy tail, both far below the TCP family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import cdf_points, ccdf_points, mean, percentile
from repro.experiments.planetlab_runs import PlanetlabTrials, run_planetlab_trials
from repro.experiments.report import render_ascii_curves, render_table
from repro.experiments.scenarios import PROTOCOLS_MAIN

__all__ = ["Fig6Result", "run", "format_report"]


@dataclass
class Fig6Result:
    """Per-protocol FCT distributions over the path population."""

    fcts: Dict[str, List[float]]                  # seconds, completed flows
    cdf: Dict[str, List[Tuple[float, float]]]     # Fig. 6(a)
    ccdf: Dict[str, List[Tuple[float, float]]]    # Fig. 6(b)
    mean_fct: Dict[str, float]
    p99_fct: Dict[str, float]

    def reduction_vs(self, protocol: str, baseline: str) -> float:
        """Fractional mean-FCT reduction of ``protocol`` vs ``baseline``."""
        return 1.0 - self.mean_fct[protocol] / self.mean_fct[baseline]


def run(
    n_paths: int = 260,
    protocols: Sequence[str] = PROTOCOLS_MAIN,
    seed: int = 42,
    trials: Optional[PlanetlabTrials] = None,
    jobs: int = 1,
) -> Fig6Result:
    """Run (or reuse) the PlanetLab trial set and build the Fig. 6 data."""
    if trials is None:
        trials = run_planetlab_trials(n_paths=n_paths, protocols=protocols,
                                      seed=seed, jobs=jobs)
    fcts: Dict[str, List[float]] = {}
    for protocol in trials.protocols():
        fcts[protocol] = trials.collector(protocol).fcts()
    return Fig6Result(
        fcts=fcts,
        cdf={p: cdf_points(v) for p, v in fcts.items()},
        ccdf={p: ccdf_points(v) for p, v in fcts.items()},
        mean_fct={p: mean(v) for p, v in fcts.items() if v},
        p99_fct={p: percentile(v, 99) for p, v in fcts.items() if v},
    )


def format_report(result: Fig6Result) -> str:
    """The rows the paper quotes: mean / median / p99 FCT per scheme."""
    rows = []
    for protocol, values in result.fcts.items():
        if not values:
            rows.append([protocol, "0", "-", "-", "-"])
            continue
        rows.append([
            protocol,
            str(len(values)),
            f"{result.mean_fct[protocol] * 1000:.0f}ms",
            f"{percentile(values, 50) * 1000:.0f}ms",
            f"{result.p99_fct[protocol] * 1000:.0f}ms",
        ])
    table = render_table(
        ["scheme", "trials", "mean FCT", "median FCT", "p99 FCT"], rows,
        title="Fig. 6 — short-flow FCT over the Internet-path population",
    )
    extras = []
    if "halfback" in result.mean_fct and "jumpstart" in result.mean_fct:
        extras.append(
            "halfback vs jumpstart mean-FCT reduction: "
            f"{result.reduction_vs('halfback', 'jumpstart') * 100:.1f}% "
            "(paper: 13%)"
        )
    if "halfback" in result.mean_fct and "tcp" in result.mean_fct:
        extras.append(
            "halfback vs tcp mean-FCT reduction: "
            f"{result.reduction_vs('halfback', 'tcp') * 100:.1f}% (paper: 52%)"
        )
    plot = render_ascii_curves(
        [(name, [(x * 1000, pct) for x, pct in curve])
         for name, curve in result.cdf.items()],
        title="Fig. 6(a) — FCT CDF",
        x_label="latency ms", y_label="percent of trials",
    )
    return "\n".join([table] + extras + [plot])
