"""Unit tests for the streaming trace sinks."""

import csv
import json

import pytest

from repro.sim.trace import TraceRecord
from repro.telemetry import export
from repro.telemetry.export import CsvTraceSink, JsonlTraceSink, record_to_dict


def rec(time=1.0, kind="link.tx", source="l1", **detail):
    return TraceRecord(time, kind, source, detail)


def test_record_to_dict_shape():
    assert record_to_dict(rec(2.5, "queue.drop", "q", uid=7)) == {
        "time": 2.5, "kind": "queue.drop", "source": "q",
        "detail": {"uid": 7},
    }


class TestJsonl:
    def test_one_sorted_compact_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.write(rec(1.0, "a", "s", z=1, a=2))
            sink.write(rec(2.0, "b", "s"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"time": 1.0, "kind": "a", "source": "s",
                         "detail": {"z": 1, "a": 2}}
        # Keys are emitted sorted with compact separators (determinism).
        assert lines[0].index('"detail"') < lines[0].index('"kind"')
        assert ", " not in lines[0]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.write(rec())
        assert path.exists()

    def test_records_written_counter(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        for i in range(5):
            sink.write(rec(float(i)))
        assert sink.records_written == 5
        sink.close()

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        assert sink.closed
        with pytest.raises(ValueError):
            sink.write(rec())

    def test_flush_every_pushes_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "FLUSH_EVERY", 2)
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.write(rec(1.0))
        sink.write(rec(2.0))  # triggers the periodic flush
        assert len(path.read_text().splitlines()) == 2
        sink.close()


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        with CsvTraceSink(str(path)) as sink:
            sink.write(rec(0.25, "queue.drop", "q0", uid=3, packet="DATA"))
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "kind", "source", "detail"]
        assert rows[1][0] == repr(0.25)
        assert rows[1][1] == "queue.drop"
        assert rows[1][2] == "q0"
        assert json.loads(rows[1][3]) == {"uid": 3, "packet": "DATA"}
