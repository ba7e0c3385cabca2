"""Streaming trace sinks.

A sink receives every :class:`~repro.sim.trace.TraceRecord` as it is
emitted and writes it straight to disk, so per-packet tracing on a
large workload no longer has to accumulate an unbounded in-memory list.
Two formats:

* :class:`JsonlTraceSink` — one JSON object per line, sorted keys and
  compact separators so identical runs produce byte-identical files
  (the determinism guarantee experiments rely on).
* :class:`CsvTraceSink` — ``time,kind,source,detail`` rows with the
  detail payload as compact JSON, for spreadsheet-side analysis.

Both flush every :data:`FLUSH_EVERY` records so a crashed run still
leaves usable data.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any, IO, Optional

__all__ = ["TraceSink", "JsonlTraceSink", "CsvTraceSink", "record_to_dict"]

#: Records between periodic flushes of a sink's OS buffer: durability
#: for a run that crashes before it closes its sinks.
FLUSH_EVERY = 1000


def record_to_dict(record) -> dict:
    """The canonical export shape of one trace record."""
    return {
        "time": record.time,
        "kind": record.kind,
        "source": record.source,
        "detail": record.detail,
    }


class TraceSink:
    """Base class for streaming sinks: open/flush plumbing.

    ``path`` is the output file; parent directories are created.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.records_written = 0
        self._since_flush = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file: Optional[IO[str]] = open(self.path, "w", encoding="utf-8",
                                             newline="")
        self._on_open()

    # -- subclass surface ------------------------------------------------

    def _format(self, record) -> str:
        """One serialized line (without trailing newline)."""
        raise NotImplementedError

    def _on_open(self) -> None:
        """Hook run after the file is opened (e.g. CSV header)."""

    # -- plumbing --------------------------------------------------------

    def write(self, record) -> None:
        """Serialize and write one record, flushing as due."""
        if self._file is None:
            raise ValueError(f"sink {self.path!r} is closed")
        self._file.write(self._format(record) + "\n")
        self.records_written += 1
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS."""
        if self._file is not None:
            self._file.flush()
        self._since_flush = 0

    def close(self) -> None:
        """Flush and close; further writes raise."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class JsonlTraceSink(TraceSink):
    """One compact, key-sorted JSON object per trace record."""

    def _format(self, record) -> str:
        return json.dumps(record_to_dict(record), sort_keys=True,
                          separators=(",", ":"), default=str)


class CsvTraceSink(TraceSink):
    """``time,kind,source,detail`` rows; detail is compact JSON."""

    HEADER = ("time", "kind", "source", "detail")

    def _on_open(self) -> None:
        assert self._file is not None
        writer = csv.writer(self._file)
        writer.writerow(self.HEADER)

    def _format(self, record) -> str:
        detail = json.dumps(record.detail, sort_keys=True,
                            separators=(",", ":"), default=str)
        buf = io.StringIO()
        csv.writer(buf).writerow(
            [repr(record.time), record.kind, record.source, detail]
        )
        return buf.getvalue().rstrip("\r\n")
