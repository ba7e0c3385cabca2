"""Crash-safe cell-result journal: the resume layer under ``fanout_map``.

Every completed cell is appended to ``cells.jsonl`` *in the parent* the
moment its result arrives — one JSON line per cell, flushed and fsynced,
keyed by a content digest of ``(worker, item)`` and carrying the cell's
scheduler tie-break counts beside its value, so a replayed cell counts
in the run's ``[scheduler tie-breaks: …]`` line as a computed one does.
Kill the run at any point and the journal holds exactly the finished
cells; ``--resume DIR`` replays them by digest and re-runs only the
remainder.  Because cells
are deterministic and results merge in item order, a resumed run's
report and fingerprint are byte-identical to an uninterrupted one.

The digest is computed from the worker's qualified name plus a stable
encoding of the item (objects exposing a ``.spec`` string — e.g.
:class:`~repro.chaos.profiles.ChaosProfile` — contribute their spec, so
the digest never sees memory addresses).  A journal written by a sweep
over different cells simply fails to match and every cell re-runs; no
versioning dance required, though each line carries a schema tag for
forward compatibility.

Torn tails are expected — that is the crash in "crash-safe" — so
:meth:`CellJournal.replay` skips undecodable lines instead of dying.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import JournalError

__all__ = ["CellJournal", "cell_digest"]

#: ``/2`` added each cell's tie-break counts; a ``/1`` line has none, so
#: it does not decode and its cell runs again.
JOURNAL_SCHEMA = "repro.parallel.journal/2"
JOURNAL_FILENAME = "cells.jsonl"


def _encode(obj: Any) -> Any:
    """Stable, address-free JSON encoding of an item for digesting."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_encode(part) for part in obj]
    if isinstance(obj, dict):
        return {str(key): _encode(obj[key]) for key in sorted(obj)}
    spec = getattr(obj, "spec", None)
    if isinstance(spec, str):
        return [type(obj).__name__, "spec", spec]
    if is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}]
    return [type(obj).__name__, repr(obj)]


def cell_digest(worker: Callable[[Any], Any], item: Any) -> str:
    """Content digest identifying one cell: what function, what input."""
    qualname = getattr(worker, "__qualname__", getattr(worker, "__name__",
                                                       repr(worker)))
    module = getattr(worker, "__module__", "")
    canonical = json.dumps([module, qualname, _encode(item)],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CellJournal:
    """Append-only journal of completed cell results in a directory.

    One instance serves both roles: :meth:`replay` loads whatever a
    previous (possibly killed) run left behind, :meth:`append` records
    each new completion durably before the sweep moves on.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.path = os.path.join(self.directory, JOURNAL_FILENAME)
        self._handle = None
        self._skipped = 0
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.directory!r}: {exc}"
            ) from exc

    # -- reading -------------------------------------------------------

    @property
    def exists(self) -> bool:
        return os.path.exists(self.path)

    @property
    def skipped_lines(self) -> int:
        """Lines dropped by the last :meth:`replay` (torn/corrupt)."""
        return self._skipped

    def replay(self) -> Dict[str, Tuple[Any, Dict[str, int]]]:
        """Load every decodable journal entry, keyed by cell digest:
        ``(value, tie-break counts)``.

        A torn final line (the run died mid-append) or a corrupt entry
        is skipped and counted, never fatal: the worst case is a cell
        that re-runs.
        """
        entries: Dict[str, Tuple[Any, Dict[str, int]]] = {}
        self._skipped = 0
        if not self.exists:
            return entries
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        digest = record["digest"]
                        payload = base64.b64decode(
                            record["payload"].encode("ascii"))
                        entries[digest] = (pickle.loads(payload),
                                           record["ties"])
                    except Exception:
                        self._skipped += 1
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.path!r}: {exc}") from exc
        return entries

    def file_digest(self) -> Optional[str]:
        """sha256 of the journal file bytes (resume lineage), or None."""
        if not self.exists:
            return None
        digest = hashlib.sha256()
        with open(self.path, "rb") as handle:
            for chunk in iter(lambda: handle.read(65536), b""):
                digest.update(chunk)
        return digest.hexdigest()

    # -- writing -------------------------------------------------------

    def append(self, digest: str, label: str, value: Any,
               ties: Dict[str, int]) -> None:
        """Durably record one completed cell and its tie-break counts
        (flush + fsync per line — cells are whole simulations, the sync
        cost is noise)."""
        payload = base64.b64encode(pickle.dumps(value)).decode("ascii")
        line = json.dumps({
            "schema": JOURNAL_SCHEMA,
            "digest": digest,
            "label": label,
            "payload": payload,
            "ties": ties,
        }, sort_keys=True)
        if self._handle is None:
            try:
                self._handle = open(self.path, "a", encoding="utf-8")
            except OSError as exc:
                raise JournalError(
                    f"cannot open journal {self.path!r}: {exc}") from exc
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CellJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
