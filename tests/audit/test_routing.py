"""Kind routing in the auditor changes who is called, never the verdict.

Every scenario runs one flow live under an ``AuditSession`` nested in a
telemetry hub, so the complete stream also lands in ``trace.jsonl``.
That file is then replayed through a routed auditor (the built-in
checkers, with their declared ``kinds``) and through one whose checkers
are wrapped so that they declare nothing and see every record — the
pre-routing dispatch.  All three verdicts must be the same list.
"""

import pytest

from repro import chaos
from repro.audit import iter_trace, replay
from repro.audit.faults import (
    seed_ack_regression,
    seed_conservation_leak,
    seed_ropr_misorder,
)
from repro.audit.invariants import Checker, default_checkers
from repro.audit.lineage import LineageTracer
from repro.audit.session import Auditor
from repro.obs.spans import FlowSpanBuilder
from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.telemetry.schema import EVENT_SCHEMA, EV_PKT_SEND
from tests.audit.conftest import run_audited_flow


class Undeclared(Checker):
    """A built-in checker behind a third party's face: no ``kinds``."""

    def __init__(self, inner: Checker) -> None:
        self.inner = inner
        self.name = inner.name

    def observe(self, record):
        return self.inner.observe(record)

    def finalize(self):
        return self.inner.finalize()


SCENARIOS = {
    "clean": dict(),
    "lossy": dict(loss_rate=0.03, seed=5, segments=70),
    "ropr-misorder": dict(
        segments=60, fault=lambda sender, **kw: seed_ropr_misorder(sender)),
    "conservation-leak": dict(
        fault=lambda net, **kw: seed_conservation_leak(net.bottleneck)),
    "ack-regression": dict(
        fault=lambda receiver, **kw: seed_ack_regression(receiver)),
    "middlebox-madness": dict(chaos_profile="middlebox-madness:3",
                              segments=70),
    "corrupting-path": dict(chaos_profile="corrupting-path:3", segments=70),
}
#: Scenarios whose seeded bug must surface (so equality is not 0 == 0).
VIOLATING = {"ropr-misorder": "ropr-order",
             "conservation-leak": "packet-conservation",
             "ack-regression": "seq-ack-monotonicity"}
#: Event kinds a scenario's stream must contain to be worth replaying.
EXERCISES = {"lossy": "link.loss", "middlebox-madness": "chaos.clone",
             "corrupting-path": "chaos.corrupt"}


def verdict(violations):
    return [(v.checker, v.time, v.message, v.flow, v.uid, v.seq, v.chain)
            for v in violations]


def run_scenario(name, tmp_path):
    """Live violations and the path of the complete recorded stream."""
    kwargs = dict(SCENARIOS[name])
    profile = kwargs.pop("chaos_profile", None)
    with Telemetry(out_dir=str(tmp_path / name), profile=False):
        if profile is None:
            run = run_audited_flow(**kwargs)
        else:
            with chaos.session(profile):
                run = run_audited_flow(**kwargs)
    return run, str(tmp_path / name / "trace.jsonl")


def audit_stream(records, checkers):
    auditor = Auditor(checkers=checkers)
    for record in records:
        auditor.observe(record)
    return auditor.finalize()


class TestRoutedEqualsUnrouted:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_violations_in_the_same_order(self, name, tmp_path):
        run, trace = run_scenario(name, tmp_path)
        records = list(iter_trace(trace))
        if name in EXERCISES:
            assert EXERCISES[name] in {record.kind for record in records}
        routed = audit_stream(records, default_checkers())
        unrouted = audit_stream(
            records, [Undeclared(c) for c in default_checkers()])
        assert routed.events_audited == unrouted.events_audited \
            == len(records)
        assert verdict(routed.violations) == verdict(unrouted.violations)
        assert len(routed.tracer) == len(unrouted.tracer)
        if name in VIOLATING:
            assert VIOLATING[name] in {v.checker for v in routed.violations}
            assert all(v.chain for v in routed.violations
                       if v.checker == VIOLATING[name])
        else:
            assert routed.clean, routed.report()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_live_and_replay_verdicts_agree(self, name, tmp_path):
        run, trace = run_scenario(name, tmp_path)
        assert verdict(replay(trace).violations) == verdict(run.violations)


class TestSubscriptions:
    def test_every_built_in_observer_declares_schema_kinds(self):
        for observer in [*default_checkers(), LineageTracer, FlowSpanBuilder]:
            assert observer.kinds, observer
            assert observer.kinds <= EVENT_SCHEMA.keys(), observer

    def test_checker_without_kinds_receives_every_record(self):
        seen = []

        class Everything(Checker):
            name = "everything"

            def observe(self, record):
                seen.append(record.kind)
                return []

        stream = [TraceRecord(0.1 * i, kind, "x", {"uid": i, "flow": 1})
                  for i, kind in enumerate([*sorted(EVENT_SCHEMA),
                                            "not.in.schema"])]
        audit_stream(stream, [Everything()])
        assert seen == [record.kind for record in stream]

    def test_declared_checker_is_called_for_its_kinds_only(self):
        seen = []

        class SendsOnly(Checker):
            name = "sends-only"
            kinds = frozenset({EV_PKT_SEND})

            def observe(self, record):
                seen.append(record.kind)
                return []

        stream = [TraceRecord(0.1 * i, kind, "x", {"uid": i, "flow": 1})
                  for i, kind in enumerate(sorted(EVENT_SCHEMA))]
        audit_stream(stream, [SendsOnly()])
        assert seen == [EV_PKT_SEND]

    def test_pkt_send_handlers_keep_the_checker_order(self):
        auditor = Auditor()
        owners = [handler.__self__ for handler in auditor._route(EV_PKT_SEND)]
        # The tracer first (chains are rendered from it), then the
        # sender-knowledge helper ahead of every checker that asks it.
        assert owners[0] is auditor.tracer
        assert owners[1].name == "ack-knowledge"
        subscribed = [c for c in auditor.checkers if EV_PKT_SEND in c.kinds]
        assert owners[1:] == subscribed

    def test_route_table_holds_nothing_of_the_auditor(self):
        auditor = Auditor()
        for kind in EVENT_SCHEMA:
            assert all(handler.__self__ is not auditor
                       for handler in auditor._route(kind))
