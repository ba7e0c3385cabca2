"""Mergeable breakdown statistics and the ambient breakdown session."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.critical import (
    BreakdownAggregator,
    BreakdownSession,
    BreakdownStats,
    active_session,
    take_breakdown,
)
from repro.obs.spans import FlowBreakdown
from repro.parallel import fanout_map
from repro.telemetry.schema import EV_FLOW_COMPLETE, EV_FLOW_START


def bd(flow=1, protocol="tcp", fct=0.1, **components):
    """A synthetic completed-flow breakdown (component kwargs use
    underscores for hyphens)."""
    comps = {name.replace("_", "-"): value
             for name, value in components.items()}
    if not comps:
        comps = {"propagation": fct}
    return FlowBreakdown(flow=flow, protocol=protocol, size=1000,
                         start=0.0, complete=fct, components=comps)


def _feed_cell(cell):
    """A fan-out cell whose two flows complete on the ambient trace."""
    trace = active_session().trace
    for protocol, flow in (("tcp", 2 * cell), ("halfback", 2 * cell + 1)):
        fct = 0.1 * (flow + 1)
        trace.record(0.0, EV_FLOW_START, "test", flow=flow,
                     protocol=protocol, size=100)
        trace.record(fct, EV_FLOW_COMPLETE, "test", flow=flow, fct=fct)
    return cell


class TestBreakdownStats:
    def test_roundtrip_preserves_fingerprint(self):
        stats = BreakdownStats("tcp")
        stats.observe(bd(1, "tcp", 0.2, propagation=0.15, rto_idle=0.05))
        stats.observe(bd(2, "tcp", 0.1, propagation=0.1))
        clone = BreakdownStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.flows == 2
        assert clone.mean("propagation") == pytest.approx(0.125)

    def test_share_and_quantiles(self):
        stats = BreakdownStats("tcp")
        for i in range(10):
            stats.observe(bd(i, "tcp", 0.1, propagation=0.06, pacing=0.04))
        assert stats.share("propagation") == pytest.approx(0.6)
        assert stats.quantile("pacing", 0.5) == pytest.approx(0.04,
                                                              rel=0.05)
        assert stats.quantile("retransmission", 0.99) == 0.0

    def test_merge_rejects_protocol_mismatch(self):
        with pytest.raises(ConfigurationError):
            BreakdownStats("tcp").merge(BreakdownStats("halfback"))

    def test_from_dict_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError):
            BreakdownStats.from_dict({"schema": "bogus"})


class TestBreakdownAggregator:
    def flows(self):
        return [bd(i, "tcp" if i % 2 else "halfback", 0.1 * (i + 1),
                   propagation=0.06 * (i + 1), pacing=0.04 * (i + 1))
                for i in range(8)]

    def test_shipped_shard_docs_merge_bit_identically(self):
        # The --jobs N contract: each cell aggregates locally and the
        # parent merges cell *documents* in serial cell order, so the
        # merge tree — and therefore every float addition — is the same
        # whether the cells ran inline or were shipped back as dicts.
        import json

        flows = self.flows()
        shard_a = BreakdownAggregator().observe_all(flows[:3])
        shard_b = BreakdownAggregator().observe_all(flows[3:])
        inline = BreakdownAggregator()
        inline.merge(shard_a).merge(shard_b)
        shipped = BreakdownAggregator()
        shipped.merge(BreakdownAggregator.from_dict(shard_a.to_dict()))
        shipped.merge(BreakdownAggregator.from_dict(
            json.loads(json.dumps(shard_b.to_dict()))))
        assert shipped.fingerprint() == inline.fingerprint()
        assert shipped.flows == len(flows)

    def test_render_carries_totals_and_conservation(self):
        agg = BreakdownAggregator().observe_all(self.flows())
        text = agg.render()
        assert "= FCT" in text
        assert "max conservation error" in text
        assert "halfback" in text and "tcp" in text

    def test_render_empty(self):
        assert "no completed flows" in BreakdownAggregator().render()

    def test_wins_table_needs_both_protocols(self):
        only_tcp = BreakdownAggregator().observe_all(
            [bd(1, "tcp", 0.1)])
        assert only_tcp.render_halfback_vs_tcp() is None
        both = BreakdownAggregator().observe_all(self.flows())
        wins = both.render_halfback_vs_tcp()
        assert wins is not None
        assert "where halfback wins" in wins
        assert "total FCT" in wins


class TestBreakdownSession:
    def feed(self, session, flow=1, protocol="tcp", fct=0.5):
        trace = session.trace
        trace.record(0.0, EV_FLOW_START, "test", flow=flow,
                     protocol=protocol, size=100)
        trace.record(fct, EV_FLOW_COMPLETE, "test", flow=flow, fct=fct)

    def test_take_breakdown_without_session_is_none(self):
        assert active_session() is None
        assert take_breakdown(1) is None

    def test_session_collects_and_hands_out_breakdowns(self):
        with BreakdownSession() as session:
            assert active_session() is session
            self.feed(session, flow=1)
            got = take_breakdown(1)
            assert got is not None and got.flow == 1
            assert take_breakdown(1) is None  # claimed exactly once
            assert session.aggregate.flows == 1
        assert active_session() is None

    def test_innermost_session_owns_pending_collection(self):
        with BreakdownSession() as outer:
            with BreakdownSession() as inner:
                assert active_session() is inner
                self.feed(inner, flow=3)
                # take_breakdown pops from the innermost session only...
                assert take_breakdown(3) is not None
                assert inner.aggregate.flows == 1
                assert 3 not in inner.pending
            assert active_session() is outer
            # ...and the suspended outer session folded none of its
            # flows, nor parked them with nobody to claim them.
            assert outer.aggregate.flows == 0
            assert outer.pending == {}
            self.feed(outer, flow=4)
            assert outer.aggregate.flows == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fanout_merges_cell_sessions_in_cell_order(self, jobs):
        cells = [0, 1, 2, 3]
        expected = BreakdownAggregator()
        for cell in cells:
            with BreakdownSession() as alone:
                _feed_cell(cell)
            expected.merge(BreakdownAggregator.from_dict(
                alone.aggregate.to_dict()))
        with BreakdownSession() as outer:
            assert fanout_map(_feed_cell, cells, jobs=jobs) == cells
        assert outer.aggregate.flows == 2 * len(cells)
        assert outer.aggregate.to_dict() == expected.to_dict()
        assert outer.pending == {}

    def test_keep_spans_retains_completed_breakdowns(self):
        with BreakdownSession(keep_spans=True) as session:
            self.feed(session, flow=5)
        assert [b.flow for b in session.completed] == [5]

    def test_observer_is_detached_on_exit(self):
        with BreakdownSession() as session:
            trace = session.trace
        trace.record(1.0, EV_FLOW_START, "test", flow=9, protocol="tcp",
                     size=1)
        trace.record(2.0, EV_FLOW_COMPLETE, "test", flow=9, fct=1.0)
        assert session.aggregate.flows == 0
