"""Streaming flow aggregation: parity with the batch collector.

:class:`FlowStats` is fed record-by-record and must reproduce the exact
floats :class:`FctCollector` computes from a retained record list — the
streaming layer is only allowed to change *memory* behaviour, never
results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.metrics.fct import FctCollector
from repro.obs.aggregate import (
    FlowStats,
    REPORT_QUANTILES,
    StreamingFlowAggregator,
)
from repro.transport.flow import FlowRecord, FlowSpec

PENALTY = 60.0


def record(size=100_000, protocol="tcp", kind="short", start=0.0,
           complete=None, rtx=0, timeouts=0, drops=None, abort=None):
    spec = FlowSpec(0, "a", "b", size=size, protocol=protocol,
                    start_time=start, kind=kind)
    rec = FlowRecord(spec)
    rec.complete_time = complete
    rec.normal_retransmissions = rtx
    rec.timeouts = timeouts
    if abort is not None:
        rec.abort_reason = abort
    if drops is not None:
        rec.extra["drops"] = drops
    return rec


#: Random flow outcomes: completed with some FCT, or censored/aborted.
records_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.floats(min_value=1e-3, max_value=30.0,
                            allow_nan=False, allow_infinity=False)),
        st.integers(min_value=0, max_value=5),   # retransmissions
        st.integers(min_value=0, max_value=3),   # timeouts
        st.booleans(),                           # aborted when censored
    ),
    min_size=1, max_size=80)


def build_records(rows):
    out = []
    for fct, rtx, timeouts, aborted in rows:
        out.append(record(
            complete=fct, rtx=rtx, timeouts=timeouts, drops=rtx,
            abort="max-flow-duration" if fct is None and aborted else None))
    return out


class TestFlowStatsParity:
    @given(rows=records_strategy)
    @settings(max_examples=100, deadline=None)
    def test_streaming_floats_match_batch_collector_exactly(self, rows):
        records = build_records(rows)
        collector = FctCollector(records)
        stats = FlowStats(penalty=PENALTY).observe_all(records)

        assert stats.flows == len(records)
        assert stats.completed == sum(1 for r in records if r.completed)
        assert stats.failed == sum(1 for r in records if r.failed)
        assert stats.completion_rate() == collector.completion_rate()
        # Bit-identical, not approximately equal: the sums accumulate in
        # the same record order on both sides.
        assert stats.mean_fct(penalized=True) == \
            collector.mean_fct(penalty=PENALTY)
        if stats.completed:
            assert stats.mean_fct() == collector.mean_fct()

    @given(rows=records_strategy)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_track_the_sketch_bound(self, rows):
        records = build_records(rows)
        fcts = sorted(r.fct for r in records if r.completed)
        stats = FlowStats().observe_all(records)
        if not fcts:
            return
        for q in REPORT_QUANTILES:
            true = fcts[stats.fct_sketch.rank_index(q)]
            assert abs(stats.quantile(q) - true) <= \
                stats.relative_accuracy * true * (1 + 1e-9)

    def test_retx_and_drop_tallies(self):
        stats = FlowStats().observe_all([
            record(complete=0.2, rtx=2, timeouts=1, drops=3),
            record(complete=None, rtx=0, timeouts=0, drops=0,
                   abort="syn-retries-exhausted"),
        ])
        assert stats.normal_retx.total == 2
        assert stats.timeouts == 1
        assert stats.drops == 3
        assert stats.pending == 0
        assert stats.failed == 1

    def test_mean_of_nothing_rejected_like_collector(self):
        stats = FlowStats().observe_all([record(complete=None)])
        with pytest.raises(ConfigurationError):
            stats.mean_fct()


class TestFlowStatsMerge:
    @given(rows=records_strategy,
           n_cells=st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_cellwise_merge_is_deterministic_and_sketch_is_exact(
            self, rows, n_cells):
        """The fan-out contract: each cell streams its own records, the
        cells merge in serial cell order.  Running that procedure twice
        is bit-identical (so jobs=1 and jobs=N agree), and the sketch
        plus every integer tally are invariant to how the stream was
        cut into cells.  Only the float sums depend on the grouping —
        which is why the grouping itself is deterministic."""
        records = build_records(rows)
        chunk = max(1, -(-len(records) // n_cells))
        cells = [records[i:i + chunk]
                 for i in range(0, len(records), chunk)]

        def merged_over_cells():
            stats = FlowStats(penalty=PENALTY)
            for cell in cells:
                stats.merge(FlowStats(penalty=PENALTY).observe_all(cell))
            return stats

        single = FlowStats(penalty=PENALTY).observe_all(records)
        first, second = merged_over_cells(), merged_over_cells()
        assert first.fingerprint() == second.fingerprint()
        assert first.to_dict() == second.to_dict()
        # Grouping-invariant state: bit-identical to the single pass.
        assert first.fct_sketch.to_dict() == single.fct_sketch.to_dict()
        assert first.normal_retx.to_dict() == single.normal_retx.to_dict()
        assert (first.flows, first.completed, first.failed,
                first.timeouts, first.drops) == \
               (single.flows, single.completed, single.failed,
                single.timeouts, single.drops)
        # Float sums: same value up to summation regrouping.
        assert first.mean_fct(penalized=True) == \
            pytest.approx(single.mean_fct(penalized=True), rel=1e-12)

    def test_merge_rejects_config_mismatch(self):
        with pytest.raises(ConfigurationError):
            FlowStats(penalty=1.0).merge(FlowStats(penalty=2.0))
        with pytest.raises(ConfigurationError):
            FlowStats(relative_accuracy=0.01).merge(
                FlowStats(relative_accuracy=0.02))

    def test_round_trip(self):
        stats = FlowStats(penalty=PENALTY).observe_all(
            [record(complete=0.2), record(complete=None)])
        clone = FlowStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.fingerprint() == stats.fingerprint()
        assert clone.mean_fct(penalized=True) == \
            stats.mean_fct(penalized=True)


class TestStreamingFlowAggregator:
    def test_render_mentions_every_group_and_quantile(self):
        agg = StreamingFlowAggregator()
        agg.group("tcp").observe(record(protocol="tcp", complete=0.1))
        agg.group("halfback").observe(record(protocol="halfback",
                                             complete=0.2))
        table = agg.render(title="streamed FCT quantiles")
        assert "streamed FCT quantiles" in table
        assert "tcp" in table and "halfback" in table
        for label in ("p50", "p90", "p99", "p99.9"):
            assert label in table
