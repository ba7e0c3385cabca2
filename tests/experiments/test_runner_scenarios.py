"""Tests for the shared experiment runner and scenario builders."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.fct import FctCollector
from repro.sim.simulator import Simulator
from repro.experiments.runner import ScheduledFlow, TrafficRunner, launch_flow
from repro.experiments.scenarios import (
    EMULAB,
    build_emulab,
    mixed_schedule,
    run_single_path_flow,
    run_utilization_point_stats,
    run_workload,
    short_flow_schedule,
)
from repro.planetlab.paths import PathSpec
from repro.units import kb, mbps, ms


def test_launch_flow_runs_to_completion():
    sim = Simulator(seed=1)
    net = build_emulab(sim, n_pairs=1)
    record = launch_flow(sim, net, "tcp", 50_000)
    sim.run(until=10.0)
    assert record.completed
    assert record.fct is not None


def test_launch_flow_at_future_time():
    sim = Simulator(seed=1)
    net = build_emulab(sim, n_pairs=1)
    record = launch_flow(sim, net, "tcp", 10_000, start_time=2.0)
    sim.run(until=10.0)
    assert record.spec.start_time == 2.0
    assert record.complete_time > 2.0


def test_launch_flow_rejects_past():
    sim = Simulator(seed=1)
    net = build_emulab(sim, n_pairs=1)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ExperimentError):
        launch_flow(sim, net, "tcp", 1000, start_time=0.5)


def test_launch_flow_completion_callback():
    sim = Simulator(seed=1)
    net = build_emulab(sim, n_pairs=1)
    seen = []
    launch_flow(sim, net, "tcp", 10_000, on_complete=seen.append)
    sim.run(until=10.0)
    assert len(seen) == 1
    assert seen[0].completed


def test_traffic_runner_round_robins_pairs():
    sim = Simulator(seed=1)
    net = build_emulab(sim, n_pairs=3)
    runner = TrafficRunner(sim, net, drain_time=10.0)
    records = runner.schedule([
        ScheduledFlow(0.0, 10_000, "tcp"),
        ScheduledFlow(0.1, 10_000, "tcp"),
        ScheduledFlow(0.2, 10_000, "tcp"),
        ScheduledFlow(0.3, 10_000, "tcp"),
    ])
    runner.run()
    sources = [r.spec.src for r in records]
    assert sources == ["s0", "s1", "s2", "s0"]
    assert runner.completion_rate() == 1.0
    assert all("drops" in r.extra for r in records)


def test_schedules_identical_across_protocols():
    a = short_flow_schedule("tcp", 0.3, 10.0, seed=7)
    b = short_flow_schedule("halfback", 0.3, 10.0, seed=7)
    assert [(f.time, f.size) for f in a] == [(f.time, f.size) for f in b]
    assert all(f.protocol == "halfback" for f in b)


def test_schedule_rate_tracks_utilization():
    low = short_flow_schedule("tcp", 0.1, 60.0, seed=1)
    high = short_flow_schedule("tcp", 0.6, 60.0, seed=1)
    assert len(high) > 3 * len(low)


def test_mixed_schedule_classes_and_byte_split():
    flows = mixed_schedule("halfback", 0.5, 200.0, seed=2)
    shorts = [f for f in flows if f.kind == "short"]
    longs = [f for f in flows if f.kind == "long"]
    assert shorts and longs
    assert all(f.protocol == "halfback" for f in shorts)
    assert all(f.protocol == "tcp" for f in longs)
    short_bytes = sum(f.size for f in shorts)
    long_bytes = sum(f.size for f in longs)
    # 10/90 split within sampling noise.
    assert short_bytes / (short_bytes + long_bytes) == pytest.approx(
        0.10, abs=0.06
    )
    times = [f.time for f in flows]
    assert times == sorted(times)


def test_mixed_schedule_validation():
    with pytest.raises(ExperimentError):
        mixed_schedule("tcp", 0.5, 10.0, seed=0, short_fraction=1.5)


def test_run_workload_returns_collector():
    schedule = short_flow_schedule("tcp", 0.2, 5.0, seed=3)
    collector = run_workload(schedule, seed=3, n_pairs=4, drain_time=20.0)
    assert isinstance(collector, FctCollector)
    assert len(collector) == len(schedule)
    assert collector.completion_rate() == 1.0


def test_run_utilization_point_end_to_end():
    stats = run_utilization_point_stats("halfback", 0.2, duration=5.0,
                                        seed=2, n_pairs=4, penalty=60.0)
    assert stats.mean_fct(penalized=True) < 1.0


def test_run_single_path_flow_records_drops():
    spec = PathSpec(pair_id=1, rtt=ms(50), bottleneck_rate=mbps(2),
                    buffer_bytes=kb(15), loss_rate=0.0)
    record = run_single_path_flow(spec, "jumpstart", size=100_000)
    assert record.completed
    assert record.extra["drops"] > 0  # pacing 100 KB/50 ms >> 2 Mbps


def test_emulab_constants_match_paper():
    assert EMULAB.bottleneck_rate == pytest.approx(mbps(15))
    assert EMULAB.rtt == pytest.approx(ms(60))
    assert EMULAB.buffer_bytes == kb(115)
