"""Schema tests: every protocol emits its documented trace events.

Each scenario runs a real flow with telemetry active and asserts (a) the
documented event kinds for that protocol actually appear and (b) every
emitted record carries the detail keys :mod:`repro.telemetry.schema`
promises, so timelines and exporters can rely on them.
"""

import pytest

from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.telemetry.schema import (
    EVENT_SCHEMA,
    FLOW_EVENT_KINDS,
    LINEAGE_EVENT_KINDS,
    SCHEMA_VERSION,
    missing_keys,
    required_keys,
    validate_records,
)
from repro.units import MSS, kb, mbps
from tests.conftest import run_one_flow


def traced_flow(protocol, lineage=False, **kwargs):
    """Run one flow inside a telemetry session; returns (run, records)."""
    with Telemetry(profile=False) as hub:
        hub.trace.lineage = lineage
        run = run_one_flow(protocol, **kwargs)
    return run, hub.trace.records()


def assert_schema_clean(records):
    problems = validate_records(records)
    assert problems == [], "\n".join(problems)


class TestSchemaHelpers:
    def test_schema_version_is_current(self):
        assert SCHEMA_VERSION == 6

    def test_required_keys_known_and_unknown(self):
        assert required_keys("halfback.frontier") == {"flow", "ack", "pointer"}
        assert required_keys("no.such.kind") == frozenset()

    def test_missing_keys_spots_the_gap(self):
        record = TraceRecord(1.0, "sender.rto", "tcp", {"flow": 1})
        assert missing_keys(record) == {"timeouts"}

    def test_flow_event_kinds_exclude_packet_events(self):
        assert "halfback.phase" in FLOW_EVENT_KINDS
        assert "queue.drop" not in FLOW_EVENT_KINDS
        assert "link.loss" not in FLOW_EVENT_KINDS
        assert not (FLOW_EVENT_KINDS & LINEAGE_EVENT_KINDS)

    def test_lineage_kinds_are_documented(self):
        assert LINEAGE_EVENT_KINDS <= set(EVENT_SCHEMA)
        for kind in LINEAGE_EVENT_KINDS:
            assert {"uid", "flow"} <= required_keys(kind)

    def test_validate_records_reports_violations(self):
        bad = TraceRecord(2.0, "flow.start", "runner", {"flow": 9})
        problems = validate_records([bad])
        assert len(problems) == 1
        assert "flow.start" in problems[0]
        assert "protocol" in problems[0]


class TestHalfbackEvents:
    def test_clean_path_emits_full_arc(self):
        run, records = traced_flow("halfback", size=100_000)
        assert run.record.completed
        kinds = {r.kind for r in records}
        assert "sender.established" in kinds
        assert "halfback.phase" in kinds
        assert "halfback.frontier" in kinds
        assert "sender.done" in kinds
        assert_schema_clean(records)

    def test_phase_arc_reaches_ropr(self):
        __, records = traced_flow("halfback", size=100_000)
        phases = [r.detail["phase"] for r in records
                  if r.kind == "halfback.phase"]
        assert "pacing" in phases
        assert "ropr" in phases

    def test_frontier_pointer_descends(self):
        __, records = traced_flow("halfback", size=100_000)
        pointers = [r.detail["pointer"] for r in records
                    if r.kind == "halfback.frontier"]
        assert pointers, "no frontier events recorded"
        assert pointers == sorted(pointers, reverse=True)


class TestJumpstartEvents:
    def test_pacing_events_on_clean_path(self):
        run, records = traced_flow("jumpstart", size=100_000)
        assert run.record.completed
        kinds = {r.kind for r in records}
        assert "jumpstart.pacing" in kinds
        assert "jumpstart.pacing_done" in kinds
        assert_schema_clean(records)

    def test_constrained_path_emits_drops_and_rto(self):
        # The quickstart's constrained path: JumpStart's one-RTT burst
        # overflows a 20 KB buffer behind a 5 Mbps bottleneck.
        run, records = traced_flow("jumpstart", size=100_000,
                                   bottleneck_rate=mbps(5),
                                   buffer_bytes=kb(20))
        assert run.record.completed
        kinds = {r.kind for r in records}
        assert "queue.drop" in kinds
        assert run.record.timeouts == 0 or "sender.rto" in kinds
        assert_schema_clean(records)


class TestTcpEvents:
    def test_recovery_events_under_loss(self):
        run, records = traced_flow("tcp", size=100_000, loss_rate=0.05,
                                   seed=2)
        assert run.record.completed
        kinds = {r.kind for r in records}
        assert "link.loss" in kinds
        assert "sender.recovery" in kinds
        assert_schema_clean(records)

    def test_done_event_matches_flow_record(self):
        run, records = traced_flow("tcp", size=50_000)
        done = [r for r in records if r.kind == "sender.done"]
        assert len(done) == 1
        assert done[0].detail["flow"] == run.record.spec.flow_id
        # The sender learns of completion one ACK flight after the
        # receiver-side FCT the record stores.
        assert run.fct <= done[0].detail["fct"] <= run.fct + 0.1
        assert done[0].detail["retx"] == run.record.normal_retransmissions


class TestReactiveEvents:
    def test_probe_event_carries_flow_and_seq(self):
        # Freeze a reactive flow mid-flight (data outstanding, no
        # recovery) and fire the probe timeout directly — deterministic,
        # and it exercises the real emitter.
        run, records = traced_flow("reactive", size=200_000, horizon=0.2)
        sender = run.sender
        assert not sender.scoreboard.all_acked
        with Telemetry(profile=False) as hub:
            run.sim.trace = hub.trace  # reroute the live sim's trace
            sender.sim.trace = hub.trace
            sender._on_pto()
            probes = hub.trace.records("reactive.probe")
        assert len(probes) == 1
        assert probes[0].detail["flow"] == run.record.spec.flow_id
        assert "seq" in probes[0].detail
        assert_schema_clean(probes)

    def test_natural_tail_loss_probe_is_schema_clean(self):
        # The scenario from the behavioural suite that provokes probes.
        run, records = traced_flow("reactive", size=30 * MSS,
                                   bottleneck_rate=mbps(4),
                                   buffer_bytes=kb(16), seed=5,
                                   horizon=60.0)
        assert run.record.completed
        probes = [r for r in records if r.kind == "reactive.probe"]
        for probe in probes:
            assert missing_keys(probe) == frozenset()
        assert_schema_clean(records)


class TestLineageEvents:
    def test_lineage_off_by_default(self):
        __, records = traced_flow("halfback", size=100_000)
        assert not any(r.kind in LINEAGE_EVENT_KINDS for r in records)

    def test_lineage_flow_emits_every_hop_kind(self):
        run, records = traced_flow("halfback", size=100_000, lineage=True)
        assert run.record.completed
        kinds = {r.kind for r in records}
        # chaos.clone only fires on an impaired link (tests/chaos covers
        # it); every unconditional hop kind must appear in a plain flow.
        assert LINEAGE_EVENT_KINDS - {"chaos.clone"} <= kinds
        assert_schema_clean(records)

    def test_every_packet_has_a_send_span(self):
        # Every downstream hop event must reference a uid whose life
        # started with a pkt.send — the tracer's span-creation invariant.
        __, records = traced_flow("halfback", size=100_000, lineage=True)
        born = {r.detail["uid"] for r in records if r.kind == "pkt.send"}
        for record in records:
            if record.kind in LINEAGE_EVENT_KINDS:
                assert record.detail["uid"] in born

    def test_ack_gen_parents_are_delivered_data(self):
        __, records = traced_flow("halfback", size=100_000, lineage=True)
        delivered = {r.detail["uid"] for r in records
                     if r.kind == "pkt.deliver"}
        acks = [r for r in records if r.kind == "pkt.ack_gen"]
        assert acks
        for ack in acks:
            assert ack.detail["parent"] in delivered

    def test_sim_crash_record_is_schema_clean(self):
        from repro.sim.simulator import Simulator
        from repro.sim.trace import TraceRecorder

        sim = Simulator(seed=1, trace=TraceRecorder(enabled=True))

        def boom():
            raise RuntimeError("injected")

        sim.schedule(0.1, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        crashes = sim.trace.records("sim.crash")
        assert len(crashes) == 1
        assert "RuntimeError" in crashes[0].detail["error"]
        assert_schema_clean(crashes)


class TestEverySchemaKindIsExercised:
    def test_covered_kinds(self):
        """The union of this suite's scenarios exercises most of the
        documented schema; assert the coverage so new kinds added to the
        schema force a test."""
        seen = set()
        for protocol, kwargs in [
            ("halfback", dict(size=100_000, lineage=True)),
            ("jumpstart", dict(size=100_000, bottleneck_rate=mbps(5),
                               buffer_bytes=kb(20))),
            ("tcp", dict(size=100_000, loss_rate=0.05, seed=2)),
            ("reactive", dict(size=30 * MSS, bottleneck_rate=mbps(4),
                              buffer_bytes=kb(16), seed=5, horizon=60.0)),
        ]:
            __, records = traced_flow(protocol, **kwargs)
            seen.update(r.kind for r in records)
        uncovered = set(EVENT_SCHEMA) - seen
        # flow.start/flow.complete come from the experiment runner (not
        # run_one_flow); sender.failed needs an aborted flow;
        # reactive.probe and sim.crash are covered by direct-firing
        # tests above; the chaos.* family needs an impaired link and is
        # schema-asserted in tests/chaos/test_impairments.py.
        assert uncovered <= {"flow.start", "flow.complete", "sender.failed",
                             "reactive.probe", "sender.rto", "sim.crash",
                             "chaos.corrupt", "chaos.flap", "chaos.rate",
                             "chaos.clone"}
