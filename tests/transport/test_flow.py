"""Unit tests for flow specs and records."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.parallel.journal import _encode
from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id, segments_for
from repro.units import MSS


def spec(size=100_000, start=0.0):
    return FlowSpec(next_flow_id(), "s0", "d0", size=size, protocol="tcp",
                    start_time=start)


def test_flow_ids_are_unique():
    assert next_flow_id() != next_flow_id()


def test_segments_for_rounds_up():
    assert segments_for(1) == 1
    assert segments_for(MSS) == 1
    assert segments_for(MSS + 1) == 2
    assert segments_for(100_000) == 69


def test_segments_for_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        segments_for(0)


def test_n_segments_is_computed_once_and_is_not_a_field():
    flow = FlowSpec(7, "s0", "d0", size=100_000, protocol="tcp")
    assert flow.n_segments == segments_for(100_000) == 69
    assert vars(flow)["n_segments"] == 69       # stored, not recomputed
    # ... and invisible to everything keyed on dataclass fields.
    shown = {"flow_id": 7, "src": "s0", "dst": "d0", "size": 100_000,
             "protocol": "tcp", "start_time": 0.0, "kind": "short"}
    assert [f.name for f in dataclasses.fields(FlowSpec)] == list(shown)
    assert dataclasses.asdict(flow) == shown
    assert repr(flow) == ("FlowSpec(flow_id=7, src='s0', dst='d0', "
                          "size=100000, protocol='tcp', start_time=0.0, "
                          "kind='short')")
    assert _encode(flow) == ["FlowSpec", shown]  # the journal's cell digest
    assert flow == FlowSpec(**shown) and hash(flow) == hash(FlowSpec(**shown))
    # A derived spec recomputes; a pickled one round-trips with it.
    assert dataclasses.replace(flow, size=MSS + 1).n_segments == 2
    clone = pickle.loads(pickle.dumps(flow))
    assert clone == flow and clone.n_segments == 69
    # Still frozen, the derived attribute included.
    with pytest.raises(dataclasses.FrozenInstanceError):
        flow.n_segments = 1


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FlowSpec(1, "a", "b", size=0, protocol="tcp")
    with pytest.raises(ConfigurationError):
        FlowSpec(1, "a", "b", size=10, protocol="tcp", start_time=-1.0)


def test_fct_includes_connection_setup():
    record = FlowRecord(spec(start=5.0))
    record.syn_time = 5.0
    record.complete_time = 5.75
    assert record.fct == pytest.approx(0.75)
    assert record.completed


def test_incomplete_flow_has_no_fct():
    record = FlowRecord(spec())
    assert record.fct is None
    assert not record.completed


def test_rtts_used_normalizes_by_handshake_rtt():
    record = FlowRecord(spec(start=0.0))
    record.complete_time = 0.30
    record.handshake_rtt = 0.06
    assert record.rtts_used() == pytest.approx(5.0)


def test_rtts_used_none_without_rtt_or_completion():
    record = FlowRecord(spec())
    assert record.rtts_used() is None
    record.handshake_rtt = 0.06
    assert record.rtts_used() is None


def test_total_and_overhead_accounting():
    record = FlowRecord(spec(size=69 * MSS))
    record.data_packets_sent = 69
    record.normal_retransmissions = 3
    record.proactive_retransmissions = 33
    assert record.total_retransmissions == 36
    assert record.bandwidth_overhead() == pytest.approx(36 / 69)
