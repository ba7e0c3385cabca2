"""Tests for the Telemetry hub, its session context, and Simulator pickup."""

import json

import pytest

from repro import telemetry
from repro.audit import AuditSession
from repro.experiments import fig03_example
from repro.obs.critical import BreakdownSession
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.telemetry import Telemetry
from repro.telemetry.context import activated, current_hub, scope
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiling import SimProfiler


class TestContext:
    def test_no_hub_by_default(self):
        assert current_hub() is None

    def test_activated_scopes_the_hub(self):
        hub = object()
        with activated(hub):
            assert current_hub() is hub
        assert current_hub() is None

    def test_nested_activation_restores_outer(self):
        outer, inner = object(), object()
        with activated(outer):
            with activated(inner):
                assert current_hub() is inner
            assert current_hub() is outer


class HostHub:
    """A hand-rolled hub: ``trace=None`` as the benchmark ledger
    installs, or a disabled recorder."""

    def __init__(self, trace):
        self.trace = trace
        self.metrics = MetricsRegistry()
        self.profiler = SimProfiler()


SESSIONS = [AuditSession, BreakdownSession]


@pytest.mark.parametrize("session_factory", SESSIONS)
class TestSessionsUnderAHostHub:
    def test_traceless_host_is_restored_and_keeps_instrumenting(
            self, session_factory):
        host = HostHub(trace=None)
        with activated(host):
            with session_factory():
                sim = Simulator()
                assert sim.trace.enabled
                assert sim.profiler is host.profiler
                assert sim.metrics is host.metrics
            assert current_hub() is host
        assert current_hub() is None

    def test_disabled_host_recorder_is_not_attached_to(self, session_factory):
        host = HostHub(trace=TraceRecorder(enabled=False))
        with activated(host):
            with session_factory() as session:
                assert Simulator().trace.enabled
                fig03_example.run()
                if session_factory is AuditSession:
                    assert session.auditor.events_audited > 0
                else:
                    (breakdown,) = session.pending.values()
                    assert breakdown.conserved
            assert current_hub() is host
        assert len(host.trace) == 0 and not host.trace.lineage

    @pytest.mark.parametrize("asked", [False, True])
    def test_host_flags_are_what_they_were(self, session_factory, asked):
        with Telemetry(profile=False) as hub:
            hub.trace.lineage = asked
            with session_factory():
                assert hub.trace.lineage
            assert hub.trace.lineage == asked

    @pytest.mark.parametrize("other_factory", SESSIONS)
    @pytest.mark.parametrize("first_out", ["inner", "outer"])
    def test_overlapping_sessions_restore_in_either_order(
            self, session_factory, other_factory, first_out):
        # Out-of-order exits are about the recorder's flags; the slots
        # themselves restore LIFO, so park them around the experiment.
        with scope(hub=None, attached=(), audit=None, breakdown=None), \
                Telemetry(profile=False) as hub:
            hub.trace.lineage = True
            outer, inner = session_factory(), other_factory()
            outer.__enter__()
            inner.__enter__()
            first, second = ((inner, outer) if first_out == "inner"
                             else (outer, inner))
            first.__exit__(None, None, None)
            # The one still attached keeps what it consumes switched on.
            assert hub.trace.lineage
            second.__exit__(None, None, None)
            assert hub.trace.lineage


class TestNestedTelemetry:
    def test_inner_hub_restores_the_outer(self):
        with Telemetry(profile=False) as outer:
            with Telemetry(profile=False) as inner:
                assert current_hub() is inner
            assert current_hub() is outer
        assert current_hub() is None


class TestSimulatorPickup:
    def test_simulator_outside_session_is_dark(self):
        sim = Simulator()
        assert not sim.trace.enabled
        assert not sim.metrics.enabled
        assert sim.profiler is None

    def test_simulator_inside_session_uses_hub(self):
        with telemetry.session() as hub:
            sim = Simulator(seed=3)
            assert sim.trace is hub.trace
            assert sim.metrics is hub.metrics
            assert sim.profiler is hub.profiler
            assert sim.trace.enabled
            assert sim.metrics.enabled

    def test_explicit_arguments_beat_the_hub(self):
        from repro.sim.trace import TraceRecorder

        mine = TraceRecorder(enabled=False)
        with telemetry.session():
            sim = Simulator(trace=mine)
            assert sim.trace is mine

    def test_session_deactivates_on_exit(self):
        with telemetry.session():
            pass
        assert current_hub() is None
        assert not Simulator().trace.enabled


class TestHubLifecycle:
    def test_in_memory_hub_has_no_sink(self):
        hub = Telemetry()
        assert hub.sink is None
        assert hub.export_paths() == []
        hub.close()

    def test_close_writes_metrics_and_profile(self, tmp_path):
        out = tmp_path / "tm"
        with telemetry.session(out_dir=str(out)) as hub:
            sim = Simulator()
            sim.schedule(1.0, lambda: sim.metrics.inc("test.counter"))
            sim.run()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["test.counter"] == 1
        profile = json.loads((out / "profile.json").read_text())
        assert profile["events"] >= 1
        assert str(out / "trace.jsonl") in hub.export_paths()
        assert str(out / "metrics.json") in hub.export_paths()

    def test_csv_format(self, tmp_path):
        with telemetry.session(out_dir=str(tmp_path), trace_format="csv"):
            sim = Simulator()
            sim.trace.record(0.0, "flow.start", "t", flow=1, protocol="tcp",
                             size=1)
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "time,kind,source,detail"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Telemetry(out_dir=str(tmp_path), trace_format="xml")

    def test_kinds_whitelist(self):
        hub = Telemetry(kinds=["halfback"])
        hub.trace.record(0.0, "halfback.phase", "s", flow=1, phase="ropr")
        hub.trace.record(0.0, "link.tx", "l")
        assert len(hub.trace) == 1
        hub.close()

    def test_close_is_idempotent(self, tmp_path):
        hub = Telemetry(out_dir=str(tmp_path))
        hub.close()
        hub.close()
        assert hub.sink.closed


class TestSummary:
    def test_summary_has_all_sections(self, tmp_path):
        with telemetry.session(out_dir=str(tmp_path)) as hub:
            sim = Simulator()
            sim.trace.record(0.0, "flow.start", "t", flow=1,
                             protocol="halfback", size=100)
            sim.metrics.inc("flows.launched")
            sim.schedule(0.5, lambda: None)
            sim.run()
        report = hub.summary()
        assert "metrics snapshot" in report
        assert "flows.launched" in report
        assert "flow timelines" in report
        assert "flow 1" in report
        assert "simulator profile" in report
        assert "exports:" in report
        assert "trace.jsonl" in report

    def test_summary_notes_ring_buffer_drops(self):
        hub = Telemetry(max_records=2, profile=False)
        for i in range(5):
            hub.trace.record(float(i), "link.tx", "l")
        report = hub.summary()
        assert "dropped 3 records" in report
        hub.close()


class TestParseKinds:
    """The hoisted --telemetry-kinds filter (shared by CLI, quickstart
    and programmatic sessions)."""

    def test_none_passes_through(self):
        assert telemetry.parse_kinds(None) is None

    def test_comma_string_splits_and_strips(self):
        assert telemetry.parse_kinds(" flow, halfback ,sender") == \
            ["flow", "halfback", "sender"]

    def test_sequence_passes_through_cleaned(self):
        assert telemetry.parse_kinds(["flow", " queue "]) == ["flow", "queue"]

    def test_empty_means_no_filtering(self):
        assert telemetry.parse_kinds("") is None
        assert telemetry.parse_kinds(",,") is None
        assert telemetry.parse_kinds([]) is None

    def test_session_accepts_comma_string(self):
        with Telemetry(profile=False, kinds="flow,halfback") as hub:
            hub.trace.record(0.0, "flow.start", "t", flow=1,
                             protocol="halfback", size=1)
            hub.trace.record(0.0, "queue.drop", "q", packet=1, uid=1)
        kinds = {r.kind for r in hub.trace.records()}
        assert kinds == {"flow.start"}
