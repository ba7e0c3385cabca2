"""Survival-sweep harness: liveness contract, determinism, CLI."""

import contextlib
import io
import json

import pytest

from repro.audit import AuditSession
from repro.chaos.cli import main as chaos_main
from repro.chaos.profiles import get_profile
from repro.chaos.sweep import run_cell, run_sweep, sweep_config
from repro.obs.critical import BreakdownSession


class TestRunCell:
    def test_recoverable_profile_completes_every_flow(self):
        cell = run_cell("halfback", get_profile("wifi-bursty"),
                        seed=11, n_flows=2, size=30_000)
        assert cell.live
        assert cell.completed == 2
        assert cell.failed == cell.pending == 0
        assert cell.mean_fct is not None and cell.mean_fct > 0

    def test_dead_air_aborts_every_flow_with_a_reason(self):
        cell = run_cell("halfback", get_profile("dead-air"),
                        seed=11, n_flows=3, size=30_000)
        assert cell.live, "aborting cleanly IS the liveness contract"
        assert cell.completed == 0
        assert cell.failed == 3
        assert sum(cell.abort_reasons.values()) == 3
        assert set(cell.abort_reasons) <= {"syn-retries-exhausted",
                                           "max-flow-duration"}
        assert "syn-retries-exhausted" in cell.abort_reasons, \
            "the lowered max_syn_retries must fire before the deadline"

    def test_audited_middlebox_cell_is_clean(self):
        # Regression guard for the clone-knowledge fix: duplication can
        # deliver a clone of an ACK whose original was queue-dropped;
        # the sender learns the contents, so the auditor must too
        # (chaos.clone events), or frontier-meet false-positives.
        with AuditSession():
            cell = run_cell("halfback",
                            get_profile("middlebox-madness", seed=42),
                            seed=42, n_flows=4, size=60_000)
        assert cell.violations == []
        assert cell.live

    def test_sweep_config_lowers_the_giveup_knobs(self):
        config = sweep_config()
        assert config.max_flow_duration == 30.0
        assert config.max_syn_retries == 3


class TestRunSweep:
    def test_same_seed_sweeps_are_bit_identical(self):
        kwargs = dict(protocols=["halfback", "tcp"],
                      profiles=["blackhole", "dead-air"],
                      seed=7, n_flows=2, size=30_000)
        first = run_sweep(**kwargs)
        second = run_sweep(**kwargs)
        assert first.live
        assert first.fingerprint == second.fingerprint
        assert ([c.to_dict() for c in first.cells]
                == [c.to_dict() for c in second.cells])

    def test_parallel_sweep_is_bit_identical_to_serial(self):
        kwargs = dict(protocols=["halfback", "tcp"],
                      profiles=["blackhole"],
                      seed=7, n_flows=2, size=30_000)
        serial = run_sweep(jobs=1, **kwargs)
        fanned = run_sweep(jobs=2, **kwargs)
        assert fanned.fingerprint == serial.fingerprint
        assert ([c.to_dict() for c in fanned.cells]
                == [c.to_dict() for c in serial.cells])

    def test_breakdown_leaves_the_fingerprint_unchanged(self):
        kwargs = dict(protocols=["halfback", "tcp"],
                      profiles=["wifi-bursty"],
                      seed=7, n_flows=2, size=30_000)
        plain = run_sweep(**kwargs)
        with BreakdownSession() as session:
            attributed = run_sweep(**kwargs)
        # Attribution is observational: the sweep result — and its
        # verdict fingerprint — must not move.
        assert attributed.fingerprint == plain.fingerprint
        assert attributed.format_report() == plain.format_report()
        assert session.aggregate.flows == 4

    def test_breakdown_parallel_matches_serial(self):
        kwargs = dict(protocols=["halfback", "tcp"],
                      profiles=["wifi-bursty"],
                      seed=7, n_flows=2, size=30_000)
        with BreakdownSession() as serial_session:
            serial = run_sweep(jobs=1, **kwargs)
        with BreakdownSession() as fanned_session:
            fanned = run_sweep(jobs=2, **kwargs)
        assert fanned.fingerprint == serial.fingerprint
        assert (fanned_session.aggregate.fingerprint()
                == serial_session.aggregate.fingerprint())
        assert fanned.format_report() == serial.format_report()

    def test_different_seed_changes_the_fingerprint(self):
        kwargs = dict(protocols=["halfback"], profiles=["wifi-bursty"],
                      n_flows=2, size=30_000)
        assert (run_sweep(seed=1, **kwargs).fingerprint
                != run_sweep(seed=2, **kwargs).fingerprint)

    def test_report_shape_and_rendering(self):
        report = run_sweep(protocols=["tcp"], profiles=["blackhole"],
                           seed=3, n_flows=2, size=30_000)
        payload = report.to_dict()
        assert payload["live"] is True
        assert payload["audited"] is False
        assert len(payload["cells"]) == 1
        cell = payload["cells"][0]
        assert cell["protocol"] == "tcp"
        assert cell["profile"] == "blackhole"
        rendered = report.format_report()
        assert "blackhole" in rendered
        assert "fingerprint" in rendered
        assert "liveness contract held" in rendered


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert chaos_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wifi-bursty" in out
        assert "dead-air" in out

    def test_sweep_subset_exits_zero_and_writes_json(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        manifest_path = tmp_path / "run_manifest.json"
        code = chaos_main([
            "sweep", "--protocols", "tcp", "--profiles", "blackhole",
            "--flows", "2", "--size", "30000", "--seed", "5",
            "--json", str(out_path),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["live"] is True
        assert payload["cells"][0]["protocol"] == "tcp"
        # The sweep's merged FCT sketch rides along in the JSON report.
        assert payload["fct_sketch"]["count"] == payload["cells"][0]["completed"]

        from repro.obs.manifest import validate_manifest

        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["result"]["fingerprint"] == payload["fingerprint"]

    @pytest.mark.parametrize("value", ["0", "-2", "nan"])
    def test_hedge_after_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as ended:
            chaos_main(["sweep", "--hedge-after", value])
        assert ended.value.code == 2
        assert "invalid positive_seconds value" in capsys.readouterr().err


SWEEP = ["sweep", "--protocols", "tcp,halfback",
         "--profiles", "wifi-bursty,dead-air", "--flows", "2",
         "--size", "30000", "--seed", "7"]


def _sweep(tmp_path, name, *extra):
    """One ``chaos sweep`` run: exit code, its stdout lines (minus what
    names its own files or counts its own work), the --json document and
    the manifest's supervisor section."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = chaos_main(SWEEP + list(extra) + [
            "--json", str(tmp_path / f"{name}.json"),
            "--manifest", str(tmp_path / f"{name}-manifest.json")])
    lines = [line for line in out.getvalue().splitlines()
             if not line.startswith(("json report:", "[scheduler",
                                     "[supervisor:", "[run manifest:"))]
    manifest = json.loads((tmp_path / f"{name}-manifest.json").read_text())
    return (code, lines, json.loads((tmp_path / f"{name}.json").read_text()),
            manifest["supervisor"])


class TestBreakdownResume:
    def test_resumed_breakdown_equals_an_uninterrupted_run(self, tmp_path):
        _, whole, whole_doc, _ = _sweep(tmp_path, "whole", "--breakdown")
        state = str(tmp_path / "state")
        code, degraded, _, _ = _sweep(
            tmp_path, "degraded", "--breakdown", "--jobs", "2",
            "--quarantine", "--procfault", "raise@1,raise@1.1",
            "--retries", "2", "--resume", state)
        assert code == 1
        assert any(line.startswith("-- MISSING") for line in degraded)
        code, resumed, resumed_doc, supervisor = _sweep(
            tmp_path, "resumed", "--breakdown", "--resume", state)
        assert code == 0
        # Three cells replay from the journal, shipped attribution and
        # all; the lost one runs now; the merge keeps cell order.
        assert supervisor["replayed"] == 3
        assert resumed == whole
        assert "== breakdown ==" in whole
        assert resumed_doc["breakdown"] == whole_doc["breakdown"]
        assert resumed_doc["fingerprint"] == whole_doc["fingerprint"]

    def test_journals_replay_only_into_runs_observed_alike(self, tmp_path):
        _, _, attributed_doc, _ = _sweep(tmp_path, "attributed",
                                         "--breakdown")
        _, plain, plain_doc, _ = _sweep(tmp_path, "plain")
        # A journal written without --breakdown holds no attribution:
        # every cell re-runs under it...
        state = str(tmp_path / "plain-state")
        _sweep(tmp_path, "journal-plain", "--resume", state)
        _, _, doc, supervisor = _sweep(tmp_path, "now-attributed",
                                       "--breakdown", "--resume", state)
        assert supervisor["replayed"] == 0
        assert doc == attributed_doc
        # ...and one written with it never replays into a plain run.
        state = str(tmp_path / "attributed-state")
        _sweep(tmp_path, "journal-attributed", "--breakdown",
               "--resume", state)
        _, lines, doc, supervisor = _sweep(tmp_path, "now-plain",
                                           "--resume", state)
        assert supervisor["replayed"] == 0
        assert lines == plain and doc == plain_doc


class TestAuditedSweep:
    def test_audit_composes_with_jobs(self, tmp_path):
        code, serial, serial_doc, _ = _sweep(tmp_path, "serial", "--audit",
                                             "--breakdown")
        _, fanned, fanned_doc, _ = _sweep(tmp_path, "fanned", "--audit",
                                          "--breakdown", "--jobs", "2")
        assert code == 0
        assert serial_doc["audited"] is True
        assert fanned == serial
        assert fanned_doc == serial_doc
