"""Conservation of the FCT attribution across figure workloads.

The acceptance bar for the breakdown is that components sum to FCT on
the figure experiments.  Audited runs get this from the
``fct-conservation`` checker on every flow; here a representative
cross-section of figure workloads (single-flow walkthrough, trial
population, utilization sweep, emulated home networks, the long-flow
coexistence timeline) runs at tiny scale with attribution on, and the
aggregate's worst conservation error must stay inside the per-flow
tolerance.
"""

import pytest

from repro.experiments import (
    fig03_example,
    fig06_planetlab_fct,
    fig09_homenets,
    fig12_utilization,
    fig15_throughput,
)
from repro.obs.critical import BreakdownSession
from repro.obs.spans import CONSERVATION_TOLERANCE


def assert_conserved(aggregate):
    assert aggregate is not None and aggregate.flows > 0
    for protocol in aggregate.protocols():
        stats = aggregate.by_protocol[protocol]
        # fct_sum bounds any single flow's FCT from above, so this is a
        # conservative form of the per-flow scaled tolerance.
        tol = CONSERVATION_TOLERANCE * max(1.0, stats.fct_sum)
        assert stats.max_conservation_error <= tol, (
            protocol, stats.max_conservation_error)


def run_ambient(run_fn):
    """Run a figure module under an ambient breakdown session."""
    with BreakdownSession() as session:
        run_fn()
    return session.aggregate


def test_fig03_walkthrough_conserves():
    assert_conserved(run_ambient(fig03_example.run))


def test_fig06_trials_conserve():
    aggregate = run_ambient(lambda: fig06_planetlab_fct.run(
        n_paths=6, seed=9, protocols=("tcp", "halfback")))
    assert_conserved(aggregate)
    assert set(aggregate.protocols()) == {"tcp", "halfback"}


def test_fig12_sweep_conserves():
    assert_conserved(run_ambient(lambda: fig12_utilization.sweep_protocols(
        ("tcp", "halfback"), utilizations=(0.1, 0.3), duration=4.0,
        seed=1, n_pairs=4,
    )))


def test_fig09_homenets_conserve():
    assert_conserved(run_ambient(
        lambda: fig09_homenets.run(n_servers=2, seed=5)))


def test_fig15_coexistence_conserves():
    aggregate = run_ambient(
        lambda: fig15_throughput.run(start_time=5.0, horizon=9.0))
    assert_conserved(aggregate)
    # The scenario mixes short flows with a long bulk transfer; both
    # kinds must attribute cleanly.
    assert aggregate.flows > 1


def test_breakdown_is_off_path_by_default():
    # No ambient session: the figure runs must not accumulate state
    # anywhere (the take_breakdown fast path returns None).
    from repro.obs.critical import active_session

    from repro.experiments.planetlab_runs import run_planetlab_trials

    assert active_session() is None
    trials = run_planetlab_trials(n_paths=2, seed=9, protocols=("halfback",))
    assert all("breakdown" not in record.extra
               for record in trials.collector("halfback").records)
