"""The live progress plane: reporters, aggregation, exports."""

import io
import json

from repro.obs.progress import (
    ProgressEvent,
    ProgressPlane,
    ShardReporter,
    ShardState,
    SNAPSHOT_SCHEMA,
    current_plane,
    current_reporter,
    flow_completed,
    heartbeat,
    plane,
    reporting,
)


class TestShardReporter:
    def test_start_update_done_lifecycle(self):
        posted = []
        reporter = ShardReporter(0, posted.append)
        reporter.started("halfback x wifi-bursty", flows_total=4)
        reporter.flow_completed(events=100)
        reporter.done(events=250)
        kinds = [e.kind for e in posted]
        assert kinds[0] == "start" and kinds[-1] == "done"
        assert posted[0].flows_total == 4
        assert posted[-1].flows_done == 1
        assert posted[-1].events == 250
        assert posted[-1].label == "halfback x wifi-bursty"

    def test_updates_are_wall_clock_throttled(self):
        posted = []
        reporter = ShardReporter(0, posted.append)
        reporter.started("cell")
        for _ in range(50):
            reporter.flow_completed()
        updates = [e for e in posted if e.kind == "update"]
        # 50 back-to-back completions inside one UPDATE_INTERVAL window
        # collapse to at most a couple of posted updates...
        assert len(updates) <= 2
        # ...but the local tally never loses a flow.
        assert reporter.flows_done == 50

    def test_force_update_bypasses_throttle(self):
        posted = []
        reporter = ShardReporter(0, posted.append)
        reporter.started("cell")
        reporter.update(flows_done=1, force=True)
        reporter.update(flows_done=2, force=True)
        updates = [e for e in posted if e.kind == "update"]
        assert [e.flows_done for e in updates] == [1, 2]

    def test_none_fields_keep_current_values(self):
        posted = []
        reporter = ShardReporter(0, posted.append)
        reporter.started("cell")
        reporter.update(flows_done=3, events=10, force=True)
        reporter.update(events=20, force=True)
        last = posted[-1]
        assert last.flows_done == 3
        assert last.events == 20


class TestShardState:
    def test_counters_are_monotonic(self):
        state = ShardState(1)
        state.apply(ProgressEvent(1, "update", flows_done=5, events=100))
        state.apply(ProgressEvent(1, "update", flows_done=3, events=40))
        assert state.flows_done == 5
        assert state.events == 100

    def test_done_event_finishes_the_shard(self):
        state = ShardState(1)
        state.apply(ProgressEvent(1, "start", label="cell"))
        assert state.state == "running"
        state.apply(ProgressEvent(1, "done", flows_done=2))
        assert state.state == "done"
        assert state.label == "cell"

    def test_fail_event_marks_the_shard_failed(self):
        state = ShardState(1)
        state.apply(ProgressEvent(1, "start"))
        state.apply(ProgressEvent(1, "fail"))
        assert state.state == "failed"


class TestProgressPlane:
    def _plane(self, **kwargs):
        kwargs.setdefault("stream", None)
        return ProgressPlane(**kwargs)

    def test_totals_and_eta(self):
        p = self._plane()
        p.begin(4)
        p.apply(ProgressEvent(0, "done", flows_done=2, events=100))
        p.apply(ProgressEvent(1, "start"))
        t = p.totals()
        assert t["shards_total"] == 4
        assert t["shards_done"] == 1
        assert t["shards_running"] == 1
        assert t["flows_done"] == 2
        assert t["events"] == 100
        assert t["eta_s"] is not None and t["eta_s"] >= 0

    def test_render_forms(self):
        p = self._plane()
        p.begin(2)
        p.apply(ProgressEvent(0, "done", label="tcp x blackhole",
                              flows_done=2, events=50, wall_s=0.5))
        line = p.render_line()
        assert "shards 1/2" in line
        assert "flows 2" in line
        table = p.render_table()
        assert "shard 0" in table
        assert "tcp x blackhole" in table

    def test_supervision_totals_and_trouble_banner(self):
        p = self._plane()
        p.begin(3)
        p.apply(ProgressEvent(0, "start"))
        p.apply(ProgressEvent(1, "start"))
        p.apply(ProgressEvent(1, "fail"))
        t = p.totals()
        assert t["shards_failed"] == 1
        assert "shard_retries" not in t
        assert "[1 failed]" in p.render_line()

    def test_clean_run_has_no_trouble_banner(self):
        p = self._plane()
        p.begin(1)
        p.apply(ProgressEvent(0, "done", flows_done=1))
        assert "failed" not in p.render_line()

    def test_prometheus_text_shape(self):
        p = self._plane()
        p.begin(2)
        p.apply(ProgressEvent(0, "done", flows_done=3, events=42))
        text = p.prometheus_text()
        assert "# TYPE repro_progress_shards_total gauge" in text
        assert "repro_progress_shards_total 2" in text
        assert "repro_progress_flows_done_total 3" in text
        assert "repro_progress_sim_events_total 42" in text
        assert text.endswith("\n")

    def test_prometheus_exports_supervision_metrics(self):
        p = self._plane()
        p.begin(2)
        p.apply(ProgressEvent(0, "start"))
        p.apply(ProgressEvent(1, "fail"))
        text = p.prometheus_text()
        assert "# TYPE repro_progress_shards_failed gauge" in text
        assert "repro_progress_shards_failed 1" in text
        assert "retries" not in text

    def test_export_writes_prom_and_jsonl(self, tmp_path):
        p = self._plane(out_dir=str(tmp_path))
        p.begin(1)
        p.apply(ProgressEvent(0, "done", flows_done=1, events=10))
        before = len((tmp_path / "progress.jsonl").read_text().splitlines()
                     ) if (tmp_path / "progress.jsonl").exists() else 0
        p.export()
        p.export()  # .prom overwritten, .jsonl appended
        prom = (tmp_path / "progress.prom").read_text()
        assert prom.count("repro_progress_shards_total") == 3  # HELP+TYPE+sample
        lines = (tmp_path / "progress.jsonl").read_text().splitlines()
        assert len(lines) == before + 2
        doc = json.loads(lines[-1])
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["totals"]["flows_done"] == 1
        assert doc["shards"][0]["state"] == "done"

    def test_export_is_atomic_no_temp_residue(self, tmp_path):
        # Publication goes through temp + os.replace: after any number
        # of exports the directory holds exactly the two published
        # files, every jsonl line parses, and each export adds one.
        p = self._plane(out_dir=str(tmp_path))
        p.begin(1)
        p.apply(ProgressEvent(0, "done", flows_done=1))
        base = len(p._snapshots)
        for expected in (base + 1, base + 2, base + 3):
            p.export()
            names = sorted(f.name for f in tmp_path.iterdir())
            assert names == ["progress.jsonl", "progress.prom"]
            lines = (tmp_path / "progress.jsonl").read_text().splitlines()
            assert len(lines) == expected
            assert all(json.loads(line)["schema"] == SNAPSHOT_SCHEMA
                       for line in lines)

    def test_snapshot_history_is_capped(self, tmp_path):
        from repro.obs import progress as progress_mod

        p = self._plane(out_dir=str(tmp_path))
        p.begin(1)
        p.apply(ProgressEvent(0, "done", flows_done=1))
        for _ in range(progress_mod.MAX_SNAPSHOTS + 5):
            p._snapshots.append(p._snapshots[-1] if p._snapshots else "{}")
        p.export()
        lines = (tmp_path / "progress.jsonl").read_text().splitlines()
        assert len(lines) == progress_mod.MAX_SNAPSHOTS

    def test_non_tty_stream_gets_full_lines(self):
        stream = io.StringIO()
        p = ProgressPlane(stream=stream)
        p.apply(ProgressEvent(0, "start"))
        p.tick(force=True)
        assert stream.getvalue().endswith("\n")
        assert "[obs]" in stream.getvalue()

    def test_non_tty_refreshes_are_throttled(self):
        # A redirected stream cannot repaint in place: back-to-back
        # ticks inside one NONTTY_REFRESH_INTERVAL window must not spray
        # one log line each (the CI-log garbage this guards against).
        stream = io.StringIO()
        p = ProgressPlane(stream=stream)
        for i in range(20):
            p.apply(ProgressEvent(0, "update", flows_done=i))
        lines = stream.getvalue().splitlines()
        assert len(lines) <= 2
        assert "\r" not in stream.getvalue()

    def test_non_tty_close_writes_final_summary_line(self):
        stream = io.StringIO()
        p = ProgressPlane(stream=stream)
        p.begin(1)
        p.apply(ProgressEvent(0, "done", flows_done=3, events=42))
        p.close()
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("[obs]")
        assert "shards 1/1" in last

    def test_tty_close_clears_the_status_line(self):
        class _Tty(io.StringIO):
            def isatty(self):
                return True

        stream = _Tty()
        p = ProgressPlane(stream=stream, refresh=0.0)
        p.apply(ProgressEvent(0, "update", flows_done=1))
        assert "\r\x1b[2K[obs]" in stream.getvalue()
        p.close()
        # The line is wiped, not left dangling before the next prompt.
        assert stream.getvalue().endswith("\r\x1b[2K")

    def test_queue_pump_and_close_drain(self, tmp_path):
        # The plane has no queue of its own: whoever pumps one (the
        # shard supervisor) hands each event to apply().
        p = self._plane(out_dir=str(tmp_path))
        p.apply(ProgressEvent(0, "start", label="cell", flows_total=2))
        p.apply(ProgressEvent(0, "done", flows_done=2, events=77))
        p.close()
        assert p.shards[0].state == "done"
        assert p.shards[0].events == 77
        # close() wrote the final exports.
        assert (tmp_path / "progress.prom").exists()
        assert (tmp_path / "progress.jsonl").exists()


class TestAmbientHelpers:
    def test_helpers_are_noops_without_context(self):
        assert current_plane() is None
        assert current_reporter() is None
        heartbeat(flows_done=1, events=2)   # must not raise
        flow_completed(events=3)            # must not raise

    def test_plane_context_activates_and_closes(self):
        with plane(stream=None) as p:
            assert current_plane() is p
        assert current_plane() is None

    def test_reporting_context_scopes_the_reporter(self):
        posted = []
        reporter = ShardReporter(7, posted.append)
        reporter.started("cell")
        with reporting(reporter):
            assert current_reporter() is reporter
            flow_completed(events=5)
        assert current_reporter() is None
        assert reporter.flows_done == 1
        assert reporter.events == 5
