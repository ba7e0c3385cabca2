"""Integration tests asserting the paper's core qualitative claims on
small but meaningful workloads.

These are the 'shape' checks DESIGN.md promises: who wins, roughly by
how much, and in which regime.  Larger-scale versions live in the
benchmarks.
"""

import pytest

from repro.metrics.collapse import SweepPoint, feasible_capacity
from repro.experiments.scenarios import run_utilization_point_stats
from repro.units import kb, mbps, ms
from tests.conftest import run_one_flow


class TestLowLoadLatencyOrdering:
    """§4.2: on a clean paper-topology path, the FCT ordering is
    halfback ~= jumpstart < tcp-10 < tcp ~= reactive ~= proactive."""

    @pytest.fixture(scope="class")
    def fcts(self):
        return {
            protocol: run_one_flow(protocol, size=100_000).fct
            for protocol in ("tcp", "tcp-10", "reactive", "proactive",
                             "jumpstart", "halfback")
        }

    def test_aggressive_schemes_beat_tcp10(self, fcts):
        assert fcts["halfback"] < fcts["tcp-10"]
        assert fcts["jumpstart"] < fcts["tcp-10"]

    def test_tcp10_beats_tcp(self, fcts):
        assert fcts["tcp-10"] < fcts["tcp"]

    def test_reactive_and_proactive_track_tcp(self, fcts):
        assert fcts["reactive"] == pytest.approx(fcts["tcp"], rel=0.1)
        assert fcts["proactive"] == pytest.approx(fcts["tcp"], rel=0.1)

    def test_halfback_half_of_tcp(self, fcts):
        """Paper: 52% mean-FCT reduction vs vanilla TCP."""
        assert fcts["halfback"] < 0.6 * fcts["tcp"]

    def test_two_rtt_transmission(self, fcts):
        assert fcts["halfback"] < 3.0 * ms(60)


class TestLossRecoveryClaims:
    """§3.2/§4.2.3: ROPR recovers start-up loss without timeouts; the
    recovery gap vs JumpStart concentrates where loss happens."""

    KWARGS = dict(size=100_000, bottleneck_rate=mbps(5),
                  buffer_bytes=kb(20), horizon=60.0)

    def test_halfback_avoids_timeouts_where_jumpstart_stalls(self):
        halfback_timeouts = 0
        jumpstart_timeouts = 0
        for seed in range(5):
            halfback_timeouts += run_one_flow(
                "halfback", seed=seed, **self.KWARGS).record.timeouts
            jumpstart_timeouts += run_one_flow(
                "jumpstart", seed=seed, **self.KWARGS).record.timeouts
        assert halfback_timeouts < jumpstart_timeouts

    def test_halfback_retransmissions_rarely_lost(self):
        """§4.2.3: ACK-clocked retransmissions approximate the drain
        rate, so proactive copies are rarely dropped."""
        run = run_one_flow("halfback", seed=1, **self.KWARGS)
        # The flow completed without the retransmission spiral: total
        # drops stay near the unavoidable start-up overflow.
        assert run.record.completed
        assert run.record.extra["drops"] < run.record.spec.n_segments

    def test_small_buffer_gap(self):
        """Fig. 10: with small buffers Halfback's FCT is far below
        JumpStart's."""
        halfback = run_one_flow("halfback", seed=2, **self.KWARGS)
        jumpstart = run_one_flow("jumpstart", seed=2, **self.KWARGS)
        assert halfback.fct < 0.7 * jumpstart.fct


class TestSafetyOrdering:
    """Fig. 12 in miniature: feasible-capacity ordering
    proactive <= jumpstart <= halfback << tcp."""

    @pytest.fixture(scope="class")
    def sweep(self):
        utils = (0.1, 0.35, 0.6, 0.85)
        curves = {}
        for protocol in ("tcp", "proactive", "jumpstart", "halfback"):
            points = []
            for utilization in utils:
                stats = run_utilization_point_stats(
                    protocol, utilization, duration=8.0, seed=3, n_pairs=8,
                    penalty=60.0)
                points.append(SweepPoint(
                    utilization, stats.mean_fct(penalized=True),
                    stats.completion_rate(),
                ))
            curves[protocol] = points
        return {p: feasible_capacity(c, factor=4.0)
                for p, c in curves.items()}

    def test_tcp_survives_high_load(self, sweep):
        assert sweep["tcp"] >= 0.6

    def test_aggressive_schemes_collapse_before_tcp(self, sweep):
        assert sweep["jumpstart"] < sweep["tcp"]
        assert sweep["proactive"] < sweep["tcp"]

    def test_halfback_at_least_as_safe_as_jumpstart(self, sweep):
        assert sweep["halfback"] >= sweep["jumpstart"]


class TestHalfbackOverheadBound:
    """§3.2: ROPR retransmits ~50% of the flow, no more."""

    def test_overhead_near_half(self):
        run = run_one_flow("halfback", size=100_000,
                           bottleneck_rate=mbps(100))
        overhead = run.record.bandwidth_overhead()
        assert 0.3 <= overhead <= 0.6
