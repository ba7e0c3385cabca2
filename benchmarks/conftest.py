"""Shared fixtures for the figure benchmarks.

The paper reuses one run set across several figures (the PlanetLab
trials feed Figs. 5-8; the utilization sweep feeds Figs. 1, 12 and 17),
so those are computed once per benchmark session at moderate scale.

Scale knob: set ``HALFBACK_BENCH_SCALE`` (default 1.0) to trade
accuracy for time; 10 approximates paper scale.  Invalid or
non-positive values fall back to 1.0 rather than crashing a benchmark
run half-way through.
"""

import os

import pytest

from repro.experiments.fig12_utilization import sweep_protocols
from repro.experiments.planetlab_runs import run_planetlab_trials

try:
    SCALE = float(os.environ.get("HALFBACK_BENCH_SCALE", "1.0"))
except ValueError:
    SCALE = 1.0
if SCALE <= 0:
    SCALE = 1.0

#: Figs. 5-8 protocol set (the paper's six head-to-head schemes).
PLANETLAB_PROTOCOLS = ("tcp", "tcp-10", "reactive", "proactive",
                       "jumpstart", "halfback")

#: Figs. 1/12/17 protocol union, swept once.
SWEEP_PROTOCOLS = ("tcp", "tcp-10", "tcp-cache", "reactive", "proactive",
                   "jumpstart", "pcp", "halfback", "halfback-forward",
                   "halfback-burst")

SWEEP_UTILIZATIONS = tuple(round(0.05 + 0.1 * i, 2) for i in range(9))


@pytest.fixture(scope="session")
def planetlab_trials():
    """The shared §4.2.1 trial set (default: 150 of the 2600 pairs)."""
    return run_planetlab_trials(
        n_paths=max(30, int(150 * SCALE)),
        protocols=PLANETLAB_PROTOCOLS,
        seed=42,
    )


@pytest.fixture(scope="session")
def utilization_sweep():
    """The shared all-short-flow sweep behind Figs. 1, 12 and 17."""
    return sweep_protocols(
        SWEEP_PROTOCOLS,
        utilizations=SWEEP_UTILIZATIONS,
        duration=max(6.0, 8.0 * SCALE),
        seed=0,
        n_pairs=12,
        collapse_factor=4.0,
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
