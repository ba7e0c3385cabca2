"""Tiny-scale smoke tests for every figure/table module.

Each test runs the experiment at a drastically reduced scale and checks
the structure of the result and its report; the *shape* assertions live
in the benchmarks (larger scale) and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig01_tradeoff,
    fig02_traffic_cdf,
    fig03_example,
    fig05_retransmissions,
    fig06_planetlab_fct,
    fig07_rtt_counts,
    fig08_loss_fct,
    fig09_homenets,
    fig10_bufferbloat,
    fig11_flowsize,
    fig12_utilization,
    fig13_short_long,
    fig14_friendliness,
    fig15_throughput,
    fig16_web,
    fig17_ablation,
    table1_taxonomy,
)
from repro.experiments.planetlab_runs import run_planetlab_trials

TINY_PROTOCOLS = ("tcp", "jumpstart", "halfback")


@pytest.fixture(scope="module")
def tiny_trials():
    return run_planetlab_trials(n_paths=20, protocols=TINY_PROTOCOLS, seed=9)


def test_fig02_pure_computation():
    result = fig02_traffic_cdf.run(steps=300)
    assert set(result.curves) == {"internet", "vl2", "benson"}
    assert "internet" in fig02_traffic_cdf.format_report(result)


def test_fig03_walkthrough_matches_paper():
    result = fig03_example.run()
    assert result.ropr_order == [9, 8, 7, 6, 5]
    assert result.record.completed
    assert result.fct_in_rtts < 3.0
    report = fig03_example.format_report(result)
    assert "ropr" in report


def test_table1_consistent_with_code():
    taxonomy = table1_taxonomy.run()
    assert taxonomy["halfback"].extra_bandwidth == 0.5
    assert "halfback" in table1_taxonomy.format_report(taxonomy)
    assert table1_taxonomy.verify_against_code() == []


def test_fig05_structure(tiny_trials):
    result = fig05_retransmissions.run(trials=tiny_trials)
    for protocol in TINY_PROTOCOLS:
        assert len(result.counts[protocol]) == 20
        assert 0.0 <= result.zero_loss_fraction[protocol] <= 1.0
    fig05_retransmissions.format_report(result)


def test_fig06_structure(tiny_trials):
    result = fig06_planetlab_fct.run(trials=tiny_trials)
    assert result.mean_fct["halfback"] <= result.mean_fct["tcp"]
    assert result.cdf["tcp"][-1][1] == pytest.approx(100.0)
    report = fig06_planetlab_fct.format_report(result)
    assert "halfback" in report


def test_fig07_structure(tiny_trials):
    result = fig07_rtt_counts.run(trials=tiny_trials)
    assert (result.within_two_rtts["halfback"]
            >= result.within_two_rtts["tcp"])
    fig07_rtt_counts.format_report(result)


def test_fig08_structure(tiny_trials):
    result = fig08_loss_fct.run(trials=tiny_trials)
    for protocol in TINY_PROTOCOLS:
        assert 0.0 <= result.lossy_fraction[protocol] <= 1.0
    fig08_loss_fct.format_report(result)


def test_fig09_tiny():
    result = fig09_homenets.run(n_servers=3, seed=5)
    assert len(result.fcts) == 8  # 4 profiles x 2 protocols
    report = fig09_homenets.format_report(result)
    assert "comcast-wired" in report


def test_fig10_tiny():
    result = fig10_bufferbloat.run(
        protocols=("tcp", "halfback"), buffers=(20_000, 115_000),
        duration=12.0, mean_interval=2.0, seed=1,
    )
    assert len(result.mean_fct["tcp"]) == 2
    assert result.mean_retransmissions["halfback"][0] >= 0
    fig10_bufferbloat.format_report(result)


@pytest.mark.parametrize("seed", [0, 7, 17, 42])
def test_fig10_short_run_reports_empty_cells(seed):
    # ``fig10 --scale 0.05`` runs ``run(duration=20.0, seed=seed)``
    # (test_report_cli pins the forwarding).  A cell's short flows come
    # from a stream keyed by seed and buffer only, so one scheme meets
    # every empty cell: at seed 17 the 50 KB cell draws no short flow,
    # and that run used to raise ``no completed flows to average``.
    result = fig10_bufferbloat.run(protocols=("halfback",), duration=20.0,
                                   seed=seed)
    empty = [result.buffers[i]
             for i, v in enumerate(result.mean_fct["halfback"]) if v is None]
    assert empty == ([50_000] if seed == 17 else [])
    assert [v is None for v in result.mean_retransmissions["halfback"]] \
        == [v is None for v in result.mean_fct["halfback"]]
    fct_panel, rtx_panel = fig10_bufferbloat.format_report(result).split(
        "\n\n")
    for panel in (fct_panel, rtx_panel):
        cells = panel.splitlines()[-1].split("|")[1:]
        assert [cell.strip() == "-" for cell in cells] \
            == [v is None for v in result.mean_fct["halfback"]]


def test_fig11_tiny():
    result = fig11_flowsize.run(
        environments=("internet",), protocols=("tcp", "halfback"),
        duration=6.0, seed=2,
    )
    assert ("internet", "halfback") in result.curves
    fig11_flowsize.format_report(result)
    assert result.best_in_bucket("internet", 0) in ("tcp", "halfback", None)


def test_fig12_tiny_sweep():
    result = fig12_utilization.sweep_protocols(
        ("tcp", "halfback"), utilizations=(0.1, 0.3), duration=4.0,
        seed=1, n_pairs=4,
    )
    assert result.feasible["tcp"] >= 0.1
    assert len(result.curve("halfback")) == 2
    assert result.low_load_fct("halfback") < result.low_load_fct("tcp")
    fig12_utilization.format_report(result)


def test_fig12_skips_zero_arrival_points():
    # Seed 42 draws zero Poisson arrivals at 5% load over 5 s (the
    # scaled-down CLI default); the point must be skipped, not crash
    # mean_fct with an empty collector.
    result = fig12_utilization.sweep_protocols(
        ("tcp",), utilizations=(0.05, 0.3), duration=5.0, seed=42,
    )
    curve = result.curve("tcp")
    assert [p.utilization for p in curve] == [0.3]
    fig12_utilization.format_report(result)


def test_fig01_derives_from_sweep():
    sweep = fig12_utilization.sweep_protocols(
        ("tcp", "halfback"), utilizations=(0.1, 0.3), duration=4.0,
        seed=1, n_pairs=4,
    )
    result = fig01_tradeoff.run(sweep=sweep)
    assert set(result.points) == {"tcp", "halfback"}
    capacity, fct = result.points["halfback"]
    assert 0.0 <= capacity <= 1.0 and fct > 0
    fig01_tradeoff.format_report(result)


def test_fig13_tiny():
    result = fig13_short_long.run(
        protocols=("halfback",), utilizations=(0.3,), duration=10.0,
        seed=1, n_pairs=4, long_size=3_000_000,
    )
    assert len(result.short_curves["halfback"]) == 1
    assert result.short_curves["halfback"][0] < 1.0  # faster than TCP base
    fig13_short_long.format_report(result)


def test_fig14_tiny():
    result = fig14_friendliness.run(
        protocols=("halfback",), utilizations=(0.2,), duration=8.0,
        seed=1, n_pairs=6,
    )
    x, y = result.centroid("halfback")
    assert 0.5 < x < 2.0 and 0.5 < y < 2.0
    fig14_friendliness.format_report(result)


def test_fig15_structure():
    result = fig15_throughput.run(start_time=5.0, horizon=9.0)
    assert set(result.series) == {"optimal", "halfback", "one-tcp", "two-tcp"}
    assert result.short_fcts["halfback"][0] < result.short_fcts["one-tcp"][0]
    assert result.dip_depth("halfback") < 1.0
    fig15_throughput.format_report(result)


def test_fig16_tiny():
    from repro.workloads.web import build_catalog
    catalog = build_catalog(n_pages=5, min_objects=3, max_objects=6)
    result = fig16_web.run(
        protocols=("tcp", "halfback"), utilizations=(0.2,),
        duration=12.0, seed=1, n_pairs=4, catalog=catalog,
    )
    assert result.curves["tcp"][0] > 0
    assert result.completion["halfback"][0] == 1.0
    fig16_web.format_report(result)


def test_fig17_tiny():
    result = fig17_ablation.run(
        protocols=("halfback", "halfback-forward"), utilizations=(0.1,),
        duration=4.0, seed=1, n_pairs=4,
    )
    assert "halfback-forward" in result.feasible
    fig17_ablation.format_report(result)
