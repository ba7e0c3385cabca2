"""Run manifests: schema validation, builder lifecycle, digests."""

import json

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_ID,
    RunManifest,
    config_digest,
    git_revision,
    peak_rss_kb,
    validate_manifest,
)


def valid_manifest():
    return RunManifest("experiments:fig2", args={"seed": 1},
                       seed=1, argv=["repro", "fig2"]).to_dict()


class TestValidateManifest:
    def test_builder_output_is_valid(self):
        assert validate_manifest(valid_manifest()) == []

    def test_non_object_rejected(self):
        assert validate_manifest([]) != []
        assert validate_manifest("nope") != []

    @pytest.mark.parametrize("key", MANIFEST_SCHEMA["required"])
    def test_every_required_key_is_enforced(self, key):
        doc = valid_manifest()
        del doc[key]
        problems = validate_manifest(doc)
        assert any(key in p for p in problems)

    def test_wrong_schema_id_rejected(self):
        doc = valid_manifest()
        doc["schema"] = "something/else"
        assert validate_manifest(doc) != []

    def test_wrong_types_rejected(self):
        doc = valid_manifest()
        doc["exit_status"] = "zero"
        assert any("exit_status" in p for p in validate_manifest(doc))
        doc = valid_manifest()
        doc["stages"] = [{"name": "x"}]  # missing wall_s
        assert any("wall_s" in p for p in validate_manifest(doc))

    def test_booleans_are_not_integers(self):
        doc = valid_manifest()
        doc["exit_status"] = True
        assert validate_manifest(doc) != []

    def test_nullable_sections_accept_null(self):
        doc = valid_manifest()
        doc["telemetry"] = None
        doc["result"] = None
        doc["git"] = None
        assert validate_manifest(doc) == []


class TestRunManifest:
    def test_stages_record_wall_clock_in_order(self):
        manifest = RunManifest("experiments:fig2")
        with manifest.stage("fig2"):
            pass
        with manifest.stage("fig3"):
            pass
        names = [s["name"] for s in manifest.stages]
        assert names == ["fig2", "fig3"]
        assert all(s["wall_s"] >= 0 for s in manifest.stages)

    def test_stage_records_even_on_exception(self):
        manifest = RunManifest("x")
        with pytest.raises(RuntimeError):
            with manifest.stage("boom"):
                raise RuntimeError("boom")
        assert manifest.stages[0]["name"] == "boom"

    def test_telemetry_and_result_sections(self):
        manifest = RunManifest("chaos:sweep", seed=7)
        manifest.record_telemetry(3, shards=[
            {"shard": 0, "dropped_records": 1},
            {"shard": 1, "dropped_records": 2},
        ])
        manifest.set_result_fingerprint("abc123", live=True)
        doc = manifest.to_dict()
        assert validate_manifest(doc) == []
        assert doc["telemetry"]["dropped_records"] == 3
        assert len(doc["telemetry"]["shards"]) == 2
        assert doc["result"] == {"fingerprint": "abc123", "live": True}
        assert doc["seed"] == 7

    def test_non_scalar_args_are_stringified(self):
        manifest = RunManifest("x", args={"paths": ["a", "b"], "n": 2})
        doc = manifest.to_dict()
        assert doc["args"]["n"] == 2
        assert doc["args"]["paths"] == "['a', 'b']"
        assert validate_manifest(doc) == []

    def test_write_emits_schema_valid_json(self, tmp_path):
        manifest = RunManifest("experiments:fig2", seed=1)
        manifest.record_config({"seed": 1})
        manifest.set_exit_status(0)
        path = tmp_path / "deep" / "run_manifest.json"
        written = manifest.write(str(path))
        assert written == str(path)
        doc = json.loads(path.read_text())
        assert validate_manifest(doc) == []
        assert doc["schema"] == MANIFEST_SCHEMA_ID
        assert doc["config_digest"] == config_digest({"seed": 1})

    def test_scheduler_section_null_by_default(self):
        doc = RunManifest("x").to_dict()
        assert doc["scheduler"] is None
        assert doc["trace_viewer"] is None
        assert validate_manifest(doc) == []

    def test_record_scheduler_tie_breaks(self):
        manifest = RunManifest("experiments:fig3")
        manifest.record_scheduler(tie_break_groups=12, max_tie_group=4)
        doc = manifest.to_dict()
        assert doc["scheduler"] == {"tie_break_groups": 12,
                                    "max_tie_group": 4}
        assert validate_manifest(doc) == []

    def test_record_trace_viewer_export(self):
        manifest = RunManifest("experiments:fig3")
        manifest.record_trace_viewer("trace.json", events=100,
                                     truncated=True, max_events=100)
        doc = manifest.to_dict()
        assert doc["trace_viewer"] == {"path": "trace.json", "events": 100,
                                       "truncated": True,
                                       "max_events": 100}
        assert validate_manifest(doc) == []

    def test_scheduler_section_type_errors_are_caught(self):
        doc = RunManifest("x").to_dict()
        doc["scheduler"] = {"tie_break_groups": "many", "max_tie_group": 1}
        assert any("tie_break_groups" in p for p in validate_manifest(doc))
        doc = RunManifest("x").to_dict()
        doc["trace_viewer"] = {"path": "t.json"}  # missing counters
        assert validate_manifest(doc) != []

    def test_outcome_defaults_ok_and_records_interrupt(self):
        doc = RunManifest("x").to_dict()
        assert doc["outcome"] == "ok"
        assert doc["interrupt_reason"] is None
        manifest = RunManifest("x")
        manifest.set_outcome("interrupted", "KeyboardInterrupt")
        doc = manifest.to_dict()
        assert doc["outcome"] == "interrupted"
        assert doc["interrupt_reason"] == "KeyboardInterrupt"
        assert validate_manifest(doc) == []

    def test_supervisor_section_null_by_default(self):
        doc = RunManifest("x").to_dict()
        assert doc["supervisor"] is None
        assert validate_manifest(doc) == []

    def test_record_supervisor_skips_runs_that_never_fanned_out(self):
        manifest = RunManifest("experiments:fig3")
        manifest.record_supervisor(
            {"shards": 0, "reaped": 0, "pool_respawns": 0, "replayed": 0,
             "quarantined": []})
        assert manifest.to_dict()["supervisor"] is None

    def test_record_supervisor_with_resume_lineage(self):
        manifest = RunManifest("chaos:sweep")
        stats = {"shards": 4, "reaped": 1, "pool_respawns": 1,
                 "replayed": 0,
                 "quarantined": [{"index": 1, "label": "tcp",
                                  "kind": "crash", "error": "x"}]}
        manifest.record_supervisor(
            stats, resume={"journal": "j/cells.jsonl",
                           "journal_digest": "ab" * 32})
        doc = manifest.to_dict()
        assert validate_manifest(doc) == []
        assert doc["supervisor"]["reaped"] == 1
        assert doc["supervisor"]["resume"]["journal"] == "j/cells.jsonl"

    def test_supervisor_section_type_errors_are_caught(self):
        doc = RunManifest("x").to_dict()
        doc["supervisor"] = {"shards": 1}  # missing counters
        assert validate_manifest(doc) != []

    def test_supervisor_schema_lists_exactly_the_stats_fields(self):
        from repro.parallel.policy import SupervisorStats

        section = MANIFEST_SCHEMA["properties"]["supervisor"]
        assert section["required"] == list(SupervisorStats().to_dict())

    def test_previous_schema_version_is_refused(self):
        doc = RunManifest("x").to_dict()
        assert doc["schema"] == "repro.obs.manifest/5"
        for previous in ("repro.obs.manifest/1", "repro.obs.manifest/2",
                         "repro.obs.manifest/3", "repro.obs.manifest/4"):
            doc["schema"] = previous
            assert validate_manifest(doc) != []

    def test_observers_section_follows_the_run_context(self):
        from repro.chaos.profiles import session as chaos_session
        from repro.obs.critical import BreakdownSession
        from repro.sim.scheduler import tiebreak_permutation
        from repro.telemetry.context import describe

        off = RunManifest("x", argv=["repro", "x"])
        off.record_observers(describe())
        assert off.to_dict()["observers"] is None

        on = RunManifest("x", argv=["repro", "x"])
        with chaos_session("wifi-bursty:3"), BreakdownSession(), \
                tiebreak_permutation(9):
            on.record_observers(describe())
        doc = on.to_dict()
        assert doc["observers"] == {"chaos": "wifi-bursty:3",
                                    "breakdown": True, "tiebreak_salt": 9}
        assert validate_manifest(doc) == []
        # Who watched is not what was computed.
        assert on.fingerprintable() == off.fingerprintable()
        doc["observers"]["tiebreak_salt"] = "nine"
        assert validate_manifest(doc) != []

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        manifest = RunManifest("x")
        path = tmp_path / "run_manifest.json"
        manifest.write(str(path))
        manifest.write(str(path))  # overwrite in place
        assert json.loads(path.read_text())["schema"] == MANIFEST_SCHEMA_ID
        assert [p.name for p in tmp_path.iterdir()] == ["run_manifest.json"]

    def test_fingerprintable_excludes_wall_clock_noise(self):
        manifest = RunManifest("x", args={"seed": 1}, seed=1,
                               argv=["repro", "x"])
        first = manifest.fingerprintable()
        for key in ("started_at", "wall_s", "peak_rss_kb", "stages",
                    "platform"):
            assert key not in json.loads(first)
        # Stable across repeated finalization of the same builder.
        assert manifest.fingerprintable() == first


class TestProbesAndDigests:
    def test_config_digest_is_order_independent_for_dicts(self):
        assert config_digest({"a": 1, "b": 2}) == \
            config_digest({"b": 2, "a": 1})

    def test_config_digest_changes_with_content(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_config_digest_accepts_dataclasses(self):
        import dataclasses

        @dataclasses.dataclass
        class Config:
            seed: int = 3

        assert config_digest(Config()) == config_digest({"seed": 3})

    def test_git_revision_in_this_repo(self):
        info = git_revision()
        if info is not None:  # git may be absent in minimal images
            assert len(info["revision"]) == 40
            assert isinstance(info["dirty"], bool)

    def test_peak_rss_is_positive_on_posix(self):
        rss = peak_rss_kb()
        if rss is not None:
            assert rss > 0
