"""The shared PlanetLab trial set behind Figs. 5-8.

The paper's §4.2.1 experiment is one run set reused by four figures:
100 KB flows over ~2.6 K Internet paths, per protocol.  This module
runs that set once (scaled by ``n_paths``) and the figure modules
post-process the same trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.metrics.fct import FctCollector
from repro.obs.aggregate import StreamingFlowAggregator
from repro.experiments.scenarios import (
    PROTOCOLS_MAIN,
    SHORT_FLOW_BYTES,
    run_single_path_flow,
)
from repro.parallel import fanout_map
from repro.planetlab.paths import PathPopulation, PathSpec
from repro.transport.flow import FlowRecord

__all__ = ["PlanetlabTrials", "run_planetlab_trials"]

#: Full-scale path count matching the paper.
FULL_SCALE_PAIRS = 2600


@dataclass
class PlanetlabTrials:
    """All protocols' trials over one path population."""

    paths: List[PathSpec]
    by_protocol: Dict[str, FctCollector]

    def protocols(self) -> List[str]:
        """Protocol names in insertion order."""
        return list(self.by_protocol)

    def collector(self, protocol: str) -> FctCollector:
        """Trials for one protocol."""
        return self.by_protocol[protocol]

    def aggregate(self) -> StreamingFlowAggregator:
        """The trial set folded into per-protocol streaming stats.

        Figures 5-8 post-process the full record lists (CDFs need every
        value); this view is the mergeable-sketch summary of the same
        trials — what a sharded full-scale (2.6 K path) run ships back
        instead of records.
        """
        agg = StreamingFlowAggregator()
        for protocol in self.by_protocol:
            agg.group(protocol).observe_all(self.by_protocol[protocol].records)
        return agg


def _run_path_task(task) -> FlowRecord:
    """Picklable per-trial worker for :func:`fanout_map`."""
    spec, protocol, flow_size, seed = task
    return run_single_path_flow(spec, protocol, size=flow_size, seed=seed)


def run_planetlab_trials(
    n_paths: int = 260,
    protocols: Sequence[str] = PROTOCOLS_MAIN,
    seed: int = 42,
    flow_size: int = SHORT_FLOW_BYTES,
    population: Optional[PathPopulation] = None,
    jobs: int = 1,
) -> PlanetlabTrials:
    """Run one flow per (path, protocol).

    ``n_paths=2600`` reproduces the paper's scale; the default is a
    tenth of that for laptop-friendly benchmark runs.  Identical seeds
    give identical paths and loss processes across protocols.

    Each trial is one self-contained simulator seeded by
    ``(seed, path)``, so ``jobs > 1`` fans the trials out over worker
    processes; records merge in the serial (protocol-major, path-order)
    sequence and the result is identical to a serial run.
    """
    if population is None:
        population = PathPopulation(n_pairs=n_paths, seed=seed)
    paths = population.subset(min(n_paths, len(population)))
    tasks = [(spec, protocol, flow_size, seed)
             for protocol in protocols for spec in paths]
    records = fanout_map(_run_path_task, tasks, jobs=jobs)
    by_protocol: Dict[str, FctCollector] = {}
    for index, protocol in enumerate(protocols):
        start = index * len(paths)
        by_protocol[protocol] = FctCollector(
            records[start:start + len(paths)])
    return PlanetlabTrials(paths=paths, by_protocol=by_protocol)
