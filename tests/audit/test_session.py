"""AuditSession wiring, flight recorder bundles, replay, and the CLI."""

import gc
import json
import os

import pytest

from repro.audit import AuditSession, iter_trace, replay
from repro.audit.cli import main as audit_main
from repro.audit.faults import seed_ropr_misorder
from repro.audit.invariants import Checker
from repro.audit.lineage import PacketSpan
from repro.audit.session import Auditor
from repro.experiments.cli import main as experiments_main
from repro.experiments.scenarios import run_single_path_flow
from repro.obs.critical import BreakdownSession
from repro.obs.spans import FlowSpanBuilder
from repro.planetlab.paths import PathPopulation
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.telemetry.context import current_hub
from tests.audit.conftest import run_audited_flow
from tests.conftest import run_one_flow


class TestSessionWiring:
    def test_ambient_hub_installed_and_restored(self):
        assert current_hub() is None
        with AuditSession() as session:
            assert current_hub().trace is session.trace
            assert session.trace.lineage
        assert current_hub() is None

    def test_composes_with_telemetry_hub(self):
        with Telemetry(profile=False) as hub:
            assert hub.trace.lineage is False
            with AuditSession() as session:
                assert current_hub() is hub, "audit must not displace the hub"
                assert hub.trace.lineage is True
                run_one_flow("halfback", size=30_000)
            assert hub.trace.lineage is False
            assert session.auditor.events_audited > 0
            assert session.clean
            # The hub kept its own (filtered) view of the same stream.
            assert hub.trace.records()

    def test_observer_sees_events_hub_filter_discards(self):
        with Telemetry(profile=False, kinds="flow") as hub:
            with AuditSession() as session:
                run_one_flow("halfback", size=30_000)
            kept = {r.kind for r in hub.trace.records()}
        assert all(k.startswith("flow") for k in kept)
        assert session.auditor.events_audited > len(kept)

    def test_audit_off_means_no_lineage_events(self):
        run = run_one_flow("halfback", size=30_000)
        assert run.sim.trace.lineage is False

    def test_clean_run_reports_clean(self):
        run = run_audited_flow(segments=20)
        assert run.clean
        assert "all invariants hold" in run.session.report()


class TestDeterministicRelease:
    """A finished bare session frees what it recorded by reference
    count; nothing waits for a full collection behind the topology's
    link <-> node cycle."""

    #: What a session accumulates, and the observers that hold it.
    OBSERVATION_STATE = (TraceRecord, PacketSpan, Auditor,
                         Checker, FlowSpanBuilder, BreakdownSession)

    @staticmethod
    def one_flow():
        spec = PathPopulation(n_pairs=1, seed=4).paths[0]
        return run_single_path_flow(spec, "halfback", size=100_000, seed=4)

    def test_no_records_or_spans_left_to_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        flags = gc.get_debug()
        try:
            with AuditSession() as session:
                self.one_flow()
            assert session.auditor.events_audited > 1000
            with BreakdownSession() as session:
                record = self.one_flow()
            assert record.extra["breakdown"].conserved
            del session, record
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, self.OBSERVATION_STATE)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()
        assert not leaked, f"{len(leaked)} objects, e.g. {leaked[:5]}"

    def test_own_ring_is_released_on_exit(self):
        for factory in (AuditSession, BreakdownSession):
            with factory() as session:
                self.one_flow()
                assert len(session.trace) > 1000
            assert len(session.trace) == 0

    def test_a_host_hubs_ring_is_left_intact(self):
        with Telemetry(profile=False) as hub:
            for factory in (AuditSession, BreakdownSession):
                with factory() as session:
                    self.one_flow()
                    inside = len(hub.trace)
                assert session.trace is hub.trace
                assert len(hub.trace.records()) == inside > 1000


class TestFlightRecorder:
    def test_violation_dumps_bundle_once(self, tmp_path):
        out = str(tmp_path / "bundle")
        run = run_audited_flow(
            segments=60, out_dir=out,
            fault=lambda sender, **kw: seed_ropr_misorder(sender))
        assert not run.clean
        assert sorted(os.listdir(out)) == ["postmortem.txt", "ring.jsonl",
                                           "violations.json"]
        recorder = run.session.auditor.recorder
        assert recorder.dumped
        assert recorder.bundle_dir == out

    def test_bundle_names_the_full_lineage(self, tmp_path):
        out = str(tmp_path / "bundle")
        run = run_audited_flow(
            segments=60, out_dir=out,
            fault=lambda sender, **kw: seed_ropr_misorder(sender))
        doc = json.loads((tmp_path / "bundle" / "violations.json").read_text())
        assert doc["reason"] == "violation"
        first = doc["violations"][0]
        assert first["checker"] == "ropr-order"
        assert first["uid"] is not None
        chain = "\n".join(first["chain"])
        assert f"uid={first['uid']}" in chain
        assert "pkt.send" in chain
        assert "caused" in chain
        text = (tmp_path / "bundle" / "postmortem.txt").read_text()
        assert "causal timeline" in text

    def test_ring_jsonl_is_replayable(self, tmp_path):
        out = str(tmp_path / "bundle")
        run_audited_flow(
            segments=60, out_dir=out,
            fault=lambda sender, **kw: seed_ropr_misorder(sender))
        auditor = replay(os.path.join(out, "ring.jsonl"))
        assert any(v.checker == "ropr-order" for v in auditor.violations)

    def test_crash_dumps_bundle_with_crash_reason(self, tmp_path):
        out = str(tmp_path / "crash-bundle")
        with pytest.raises(RuntimeError):
            with AuditSession(out_dir=out):
                sim = Simulator(seed=1)

                def boom():
                    raise RuntimeError("injected")

                sim.schedule(0.5, boom)
                sim.run()
        doc = json.loads(
            (tmp_path / "crash-bundle" / "violations.json").read_text())
        assert doc["reason"].startswith("crash: RuntimeError")

    def test_no_out_dir_means_no_dump(self):
        run = run_audited_flow(
            segments=60,
            fault=lambda sender, **kw: seed_ropr_misorder(sender))
        assert not run.clean
        assert run.session.auditor.recorder.dumped is False


class TestReplay:
    def test_iter_trace_roundtrips_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"detail":{"flow":1},"kind":"flow.start","source":"x",'
            '"time":0.5}\n\n')
        records = list(iter_trace(str(path)))
        assert records == [TraceRecord(0.5, "flow.start", "x", {"flow": 1})]

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"detail":{},"kind":"a.b","source":"x","time":1.0}\n'
            '{"detail":{},"kind":"a.b","sou')
        assert len(list(iter_trace(str(path)))) == 1

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            'not json\n'
            '{"detail":{},"kind":"a.b","source":"x","time":1.0}\n')
        with pytest.raises(ValueError, match=":1:"):
            list(iter_trace(str(path)))

    def test_live_and_replay_agree(self, tmp_path):
        out = str(tmp_path / "bundle")
        live = run_audited_flow(
            segments=60, out_dir=out,
            fault=lambda sender, **kw: seed_ropr_misorder(sender))
        auditor = replay(os.path.join(out, "ring.jsonl"))
        live_first = live.violations[0]
        replay_first = auditor.violations[0]
        assert replay_first.checker == live_first.checker
        assert replay_first.uid == live_first.uid
        assert replay_first.chain == live_first.chain


class TestCli:
    def make_trace(self, tmp_path, fault):
        """A violating run's ring.jsonl, ready for offline replay."""
        out = str(tmp_path / "bundle")
        run_audited_flow(segments=60, out_dir=out, fault=fault)
        return os.path.join(out, "ring.jsonl")

    def test_cli_detects_seeded_violation(self, tmp_path, capsys):
        ring = self.make_trace(
            tmp_path, fault=lambda sender, **kw: seed_ropr_misorder(sender))
        code = audit_main(["--replay", ring,
                           "--out", str(tmp_path / "replay-bundle")])
        assert code == 1
        out = capsys.readouterr().out
        assert "ropr-order" in out
        assert (tmp_path / "replay-bundle" / "postmortem.txt").exists()

    def test_cli_clean_trace_exits_zero(self, tmp_path, capsys):
        with Telemetry(out_dir=str(tmp_path / "tele"), profile=False) as hub:
            hub.trace.lineage = True
            run_one_flow("halfback", size=30_000)
        trace = str(tmp_path / "tele" / "trace.jsonl")
        code = audit_main(["--replay", trace,
                           "--out", str(tmp_path / "none")])
        assert code == 0
        assert "all invariants hold" in capsys.readouterr().out
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("flags", [["--ring", "0"],
                                       ["--max-spans", "-1"]],
                             ids=["ring-0", "max-spans-negative"])
    def test_non_positive_count_is_a_usage_error(self, tmp_path, capsys,
                                                 flags):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            audit_main(["--replay", str(trace)] + flags)
        assert exit_info.value.code == 2
        assert "invalid positive_int value" in capsys.readouterr().err

    def test_missing_replay_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-trace.jsonl")
        with pytest.raises(SystemExit) as exit_info:
            audit_main(["--replay", missing,
                        "--out", str(tmp_path / "none")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "cannot read --replay" in err
        assert not (tmp_path / "none").exists()

    def test_experiments_cli_forwards_audit_subcommand(self, tmp_path,
                                                       capsys):
        ring = self.make_trace(
            tmp_path, fault=lambda sender, **kw: seed_ropr_misorder(sender))
        code = experiments_main(["audit", "--replay", ring,
                                 "--out", str(tmp_path / "fwd-bundle")])
        assert code == 1
        assert "ropr-order" in capsys.readouterr().out

    def test_experiments_cli_live_audit_flag(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = experiments_main(["fig3", "--audit"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== audit ==" in out
        assert "all invariants hold" in out
