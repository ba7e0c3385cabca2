"""Fig. 9: Halfback vs TCP over four home access networks (§4.2.2).

100 KB downloads from a population of servers (170 at paper scale) to
clients behind four access profiles.  Paper medians: Halfback beats TCP
by 50 % (Comcast wired), 68 % (ConnectivityU wireless), 50 %
(ConnectivityU wired) and 18 % (AT&T DSL wireless — least improvement
because the access bandwidth is lowest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.metrics.stats import cdf_points, median
from repro.planetlab.homenet import HOME_PROFILES, server_rtts, to_path_spec
from repro.experiments.report import render_table
from repro.experiments.scenarios import SHORT_FLOW_BYTES, run_single_path_flow
from repro.sim.randomness import derive_seed

__all__ = ["Fig9Result", "run", "format_report"]

PROTOCOLS = ("halfback", "tcp")


@dataclass
class Fig9Result:
    """FCTs per (profile, protocol)."""

    fcts: Dict[Tuple[str, str], List[float]]   # (profile, protocol) -> seconds
    cdf: Dict[Tuple[str, str], List[Tuple[float, float]]]
    median_fct: Dict[Tuple[str, str], float]

    def median_reduction(self, profile: str) -> float:
        """Halfback's fractional median-FCT reduction vs TCP on a profile."""
        return 1.0 - (self.median_fct[(profile, "halfback")]
                      / self.median_fct[(profile, "tcp")])


def run(
    n_servers: int = 40,
    seed: int = 7,
    flow_size: int = SHORT_FLOW_BYTES,
    protocols: Sequence[str] = PROTOCOLS,
) -> Fig9Result:
    """One download per (profile, server, protocol).

    ``n_servers=170`` reproduces the paper's scale.
    """
    rtts = server_rtts(n_servers=n_servers, seed=seed)
    fcts: Dict[Tuple[str, str], List[float]] = {}
    for profile_name, profile in HOME_PROFILES.items():
        for protocol in protocols:
            values: List[float] = []
            for server_index, server_rtt in enumerate(rtts):
                pair_id = derive_seed(
                    seed, f"fig9:{profile_name}:{server_index}") % (1 << 30)
                spec = to_path_spec(profile, server_rtt, pair_id=pair_id)
                record = run_single_path_flow(spec, protocol, size=flow_size,
                                              seed=seed)
                if record.fct is not None:
                    values.append(record.fct)
            fcts[(profile_name, protocol)] = values
    return Fig9Result(
        fcts=fcts,
        cdf={key: cdf_points(v) for key, v in fcts.items()},
        median_fct={key: median(v) for key, v in fcts.items() if v},
    )


def format_report(result: Fig9Result) -> str:
    """Median FCT per profile and Halfback's reduction vs TCP."""
    paper_reductions = {
        "comcast-wired": 50, "connectivityu-wireless": 68,
        "connectivityu-wired": 50, "att-dsl-wireless": 18,
    }
    rows = []
    for profile in HOME_PROFILES:
        halfback = result.median_fct.get((profile, "halfback"))
        tcp = result.median_fct.get((profile, "tcp"))
        if halfback is None or tcp is None:
            continue
        rows.append([
            profile,
            f"{halfback * 1000:.0f}ms",
            f"{tcp * 1000:.0f}ms",
            f"{result.median_reduction(profile) * 100:.0f}%",
            f"{paper_reductions.get(profile, '?')}%",
        ])
    return render_table(
        ["home network", "halfback p50", "tcp p50", "reduction", "paper"],
        rows, title="Fig. 9 — home access networks",
    )
