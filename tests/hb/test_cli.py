"""``python -m repro hb`` CLI: subcommands, sources, and exit codes."""

import gc
import importlib
import json

import pytest

from repro.hb.cli import hb_main
from repro.hb.graph import HBGraph
from repro.hb.session import ProvenanceSession
from repro.sim.trace import TraceRecord
from repro.telemetry.export import record_to_dict
from tests.conftest import run_one_flow


@pytest.fixture(scope="module")
def provenance_trace(tmp_path_factory):
    """A JSONL trace of one flow recorded with provenance on."""
    with ProvenanceSession() as session:
        run_one_flow("halfback", size=100_000)
        records = session.records()
    path = tmp_path_factory.mktemp("hb") / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), default=str))
            fh.write("\n")
    return str(path)


class TestStats:
    def test_trace_source(self, provenance_trace, capsys):
        assert hb_main(["stats", "--trace", provenance_trace]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "tie groups:" in out

    def test_run_source(self, capsys):
        assert hb_main(["stats", "--run", "fig3", "--scale", "0.02"]) == 0
        assert "entities:" in capsys.readouterr().out

    def test_unknown_run_exits_2(self, capsys):
        assert hb_main(["stats", "--run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, capsys):
        assert hb_main(["stats", "--trace", "/no/such/file.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_provenance_free_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({
            "time": 1.0, "kind": "flow.start", "source": "runner",
            "detail": {"flow": 1},
        }) + "\n")
        assert hb_main(["stats", "--trace", str(path)]) == 2
        assert "provenance" in capsys.readouterr().err


class TestRaces:
    def test_clean_trace_exits_0(self, provenance_trace, capsys):
        assert hb_main(["races", "--trace", provenance_trace]) == 0
        assert "no races" in capsys.readouterr().out

    def test_racy_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "racy.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for seq in (0, 1):
                fh.write(json.dumps({
                    "time": 1.0, "kind": "sched.exec", "source": "a",
                    "detail": {"seq": seq, "parent": None,
                               "callback": "cb", "prio": 0},
                }) + "\n")
        assert hb_main(["races", "--trace", str(path)]) == 1
        assert "race(s):" in capsys.readouterr().out


    def test_run_source_retains_no_record_list(self, monkeypatch, capsys):
        # `races --run fig12` once held every record, twice, plus every
        # graph node (8 GB and counting); the scan needs one tie group.
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"races built a {type(self).__name__}")

        monkeypatch.setattr(ProvenanceSession, "__init__", refuse)
        monkeypatch.setattr(HBGraph, "__init__", refuse)
        # (``repro.hb.perturb`` the attribute is the function.)
        perturb = importlib.import_module("repro.hb.perturb")
        run_scenario = perturb.run_scenario

        def live_records():
            return sum(isinstance(obj, TraceRecord)
                       for obj in gc.get_objects())

        grown = []

        def run_then_count(*args, **kwargs):
            report = run_scenario(*args, **kwargs)
            grown.append(live_records() - before)
            return report

        monkeypatch.setattr(perturb, "run_scenario", run_then_count)
        gc.collect()
        before = live_records()  # other tests' fixtures may hold some
        assert hb_main(["races", "--run", "fig3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "across 208 events" in out and "no races" in out
        # Still inside the recording scope, the run's ~600 records are
        # gone (the one being dispatched may linger in a frame).
        assert grown and grown[0] <= 2


class TestExport:
    def test_writes_both_formats(self, provenance_trace, tmp_path, capsys):
        dot = tmp_path / "hb.dot"
        perfetto = tmp_path / "hb.json"
        rc = hb_main(["export", "--trace", provenance_trace,
                      "--dot", str(dot), "--perfetto", str(perfetto)])
        assert rc == 0
        assert dot.read_text().startswith("digraph hb")
        doc = json.loads(perfetto.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["truncated"] is False

    def test_max_nodes_truncates(self, provenance_trace, tmp_path):
        perfetto = tmp_path / "hb.json"
        assert hb_main(["export", "--trace", provenance_trace,
                        "--perfetto", str(perfetto),
                        "--max-nodes", "5"]) == 0
        doc = json.loads(perfetto.read_text())
        assert doc["otherData"]["truncated"] is True

    def test_no_outputs_exits_2(self, provenance_trace, capsys):
        assert hb_main(["export", "--trace", provenance_trace]) == 2
        assert "--dot and/or --perfetto" in capsys.readouterr().err


class TestPerturb:
    def test_passing_scenario_exits_0(self, capsys):
        rc = hb_main(["perturb", "fig3", "--salts", "1,2",
                      "--scale", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "salt 2:" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert hb_main(["perturb", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_salts_exit_2(self, capsys):
        assert hb_main(["perturb", "fig3", "--salts", "x,y"]) == 2
        assert "bad --salts" in capsys.readouterr().err
