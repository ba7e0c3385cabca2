"""Batched-datapath equivalence: train planning must be invisible.

The packet-train datapath (:mod:`repro.net.link`) advances whole
back-to-back runs analytically instead of firing per-packet events.
The contract is *bit-identical results*: every figure report, chaos
fingerprint, and perturbation-salted run must come out byte-for-byte
the same whether batching is on (the default) or forced off via
:func:`repro.net.link.batching_disabled` — serial or fanned out over
worker processes (``jobs``; workers inherit the parent's batching
switch through the fork).

Reprs are normalized before comparison: ``flow_id`` comes from a
process-global counter and object addresses (``0x...``) vary per
process, so both would produce false mismatches between two runs in
the same interpreter.
"""

import re

import pytest

from repro.net.link import LinkStats, batching_disabled
from repro.net.queue import QueueStats
from repro.sim.scheduler import tiebreak_permutation

#: Tie-break permutation salts the perturbation harness defaults to.
SALTS = (1, 2, 3)


def _normalize(obj) -> str:
    text = repr(obj)
    text = re.sub(r"flow_id=\d+", "flow_id=N", text)
    text = re.sub(r"0x[0-9a-f]+", "0xN", text)
    return text


def _fig3(jobs: int = 1) -> str:
    import repro.experiments.fig03_example as mod

    return _normalize(mod.run(seed=7))


def _fig6(jobs: int = 1) -> str:
    import repro.experiments.fig06_planetlab_fct as mod

    return _normalize(mod.run(n_paths=4, protocols=("tcp", "halfback"),
                              seed=7, jobs=jobs))


def _fig12(jobs: int = 1) -> str:
    import repro.experiments.fig12_utilization as mod

    return _normalize(mod.run(protocols=("tcp", "halfback"),
                              utilizations=(0.3, 0.6), duration=4.0,
                              seed=7, n_pairs=4, jobs=jobs))


SCENARIOS = {"fig3": _fig3, "fig6": _fig6, "fig12": _fig12}


def _run(scenario: str, salt, jobs: int = 1) -> str:
    fn = SCENARIOS[scenario]
    if salt is None:
        return fn(jobs=jobs)
    with tiebreak_permutation(salt):
        return fn(jobs=jobs)


class TestSerialEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_default_order(self, scenario):
        batched = _run(scenario, salt=None)
        with batching_disabled():
            unbatched = _run(scenario, salt=None)
        assert batched == unbatched

    @pytest.mark.parametrize("salt", SALTS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_perturbation_salts(self, scenario, salt):
        batched = _run(scenario, salt=salt)
        with batching_disabled():
            unbatched = _run(scenario, salt=salt)
        assert batched == unbatched


class TestJobsEquivalence:
    """``--jobs 4`` fan-out: workers fork with the parent's batching
    switch, so the sharded runs must match the serial ones too."""

    @pytest.mark.parametrize("scenario", ("fig12", "fig6"))
    def test_jobs4_batched_matches_unbatched(self, scenario):
        batched = _run(scenario, salt=None, jobs=4)
        with batching_disabled():
            unbatched = _run(scenario, salt=None, jobs=4)
        assert batched == unbatched

    def test_jobs4_salted_matches_serial(self):
        serial = _run("fig12", salt=2)
        sharded = _run("fig12", salt=2, jobs=4)
        with batching_disabled():
            unbatched_sharded = _run("fig12", salt=2, jobs=4)
        assert serial == sharded
        assert sharded == unbatched_sharded


class TestChaosEquivalence:
    """Chaos profiles attach impairments, which force the per-packet
    fallback on impaired links — but unimpaired hops still batch, so
    the sweep fingerprint is the end-to-end equivalence check."""

    def _sweep_fingerprint(self) -> str:
        from repro.chaos.sweep import run_sweep

        report = run_sweep(protocols=("tcp", "halfback"),
                           profiles=("wifi-bursty", "flaky-uplink"),
                           seed=7, n_flows=2, size=40_000)
        return report.fingerprint

    def test_chaos_sweep_fingerprint(self):
        batched = self._sweep_fingerprint()
        with batching_disabled():
            unbatched = self._sweep_fingerprint()
        assert batched == unbatched


def _counters(sim, net):
    counters = {
        name: ({s: getattr(link.stats, s) for s in LinkStats.__slots__},
               {s: getattr(link.queue.stats, s)
                for s in QueueStats.__slots__})
        for name, link in net.topology.links.items()
    }
    return sim.events_run, sim.events_absorbed, counters


def _dumbbell(metrics=None):
    from repro.experiments.runner import TrafficRunner
    from repro.experiments.scenarios import build_emulab, short_flow_schedule
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=3, metrics=metrics)
    net = build_emulab(sim, n_pairs=4, buffer_bytes=30_000)
    runner = TrafficRunner(sim, net, drain_time=5.0)
    runner.schedule(short_flow_schedule("halfback", 0.8, 3.0, seed=3))
    runner.run()
    return _counters(sim, net)


def _lossy_path(metrics=None):
    """One single-pair path, lossy in both directions: both bottleneck
    directions are cut-through, so a segment planned at the sender's
    edge crosses two virtual hops."""
    from repro.experiments.runner import launch_flow
    from repro.planetlab.paths import PathSpec, build_path
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=5, metrics=metrics)
    spec = PathSpec(pair_id=1, rtt=0.08, bottleneck_rate=1_250_000,
                    buffer_bytes=60_000, loss_rate=0.1)
    net = build_path(sim, spec)
    assert net.bottleneck.cut_through
    assert net.reverse_bottleneck.cut_through
    for index, protocol in enumerate(("tcp", "halfback")):
        launch_flow(sim, net, protocol, 150_000,
                    start_time=0.01 + 2.0 * index)
    sim.run(until=30.0)
    return _counters(sim, net)


class TestEventAccounting:
    """``events_absorbed`` keeps event-rate figures honest: fired plus
    absorbed must be the per-packet event count exactly, with every
    link and queue counter untouched by the planning."""

    def test_fired_plus_absorbed_is_the_per_packet_event_count(self):
        fired, absorbed, counters = _dumbbell()
        with batching_disabled():
            ref_fired, ref_absorbed, ref_counters = _dumbbell()
        assert absorbed > 0 and ref_absorbed == 0
        assert fired + absorbed == ref_fired
        # The bottleneck overflows in this run, so drops are compared too.
        assert sum(queue["dropped"] for __, queue in counters.values()) > 0
        assert counters == ref_counters

    def test_two_virtual_hops_on_a_lossy_single_pair_path(self):
        fired, absorbed, counters = _lossy_path()
        with batching_disabled():
            ref_fired, ref_absorbed, ref_counters = _lossy_path()
        assert absorbed > 0 and ref_absorbed == 0
        assert fired + absorbed == ref_fired
        # One virtual hop per packet absorbs two of every six per-packet
        # events; firing under a third of them takes chains of two.
        assert 3 * fired < ref_fired
        lost = {name: link["packets_lost_inflight"]
                for name, (link, __) in counters.items()}
        assert lost[("r1", "r2")] > 0 and lost[("r2", "r1")] > 0
        assert counters == ref_counters


class TestMetricsEquivalence:
    """An enabled registry without a trace keeps links batched; every
    link, queue and sender counter must read what the per-packet run
    reads.  ``scheduler.events_absorbed`` differs by design."""

    @staticmethod
    def _snapshot(scenario):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        fired, absorbed, __ = scenario(metrics=metrics)
        snap = {name: value for name, value in metrics.snapshot().items()
                if name.startswith(("link.", "queue.", "sender."))}
        return fired + absorbed, absorbed, snap

    @pytest.mark.parametrize("scenario", (_dumbbell, _lossy_path),
                             ids=("dumbbell", "lossy_path"))
    def test_counters_match_the_reference(self, scenario):
        logical, absorbed, snap = self._snapshot(scenario)
        with batching_disabled():
            ref_logical, ref_absorbed, ref_snap = self._snapshot(scenario)
        assert absorbed > 0 and ref_absorbed == 0
        assert logical == ref_logical
        assert snap["link.tx_packets"] > 0
        assert snap == ref_snap
