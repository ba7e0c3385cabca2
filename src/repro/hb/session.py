"""Scoped provenance recording for happens-before analysis.

:func:`provenance_stream` is wired like
:class:`repro.audit.session.AuditSession`
(:func:`repro.telemetry.context.attached`): it subscribes an observer
declaring :data:`~repro.hb.ties.CAUSAL_KINDS`, which turns
the recorder's ``provenance`` and ``lineage`` on for the duration — on
the ambient hub's recorder when one is enabled, otherwise on an
unfiltered, store-nothing one of its own — so simulators built inside
the ``with`` block emit the full ``sched.exec`` + ``pkt.*`` stream to
the observer and nothing else keeps it.

:class:`ProvenanceSession` is that stream collected into a list.  The
collection is unbounded by default — a happens-before graph needs every
event of the run, not a ring suffix — so sessions are meant for quick,
scoped runs; analyses that can fold the stream as it arrives (the
``python -m repro hb`` CLI) use :func:`provenance_stream` directly.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.hb.ties import CAUSAL_KINDS
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.telemetry import context

__all__ = ["ProvenanceSession", "provenance_stream"]


@contextmanager
def provenance_stream(
        observer: Callable[[TraceRecord], None]) -> Iterator[None]:
    """Hand every record of the runs inside the block to ``observer``,
    with provenance (+ lineage) recording on; retains nothing."""
    with context.attached("provenance", observer, CAUSAL_KINDS,
                          lambda: TraceRecorder(keep_records=False)):
        yield


class ProvenanceSession:
    """Context manager that records the provenance (+ lineage) stream.

    Parameters
    ----------
    max_records:
        Optional bound on the records kept (newest win); None (the
        default) keeps every record so the graph covers the whole run.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        self.max_records = max_records
        self._records: deque = deque(maxlen=max_records)

    def __enter__(self) -> "ProvenanceSession":
        self._attachment = provenance_stream(self._records.append)
        self._attachment.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._attachment.__exit__(*exc)

    def records(self) -> List[TraceRecord]:
        """The stream recorded so far (every kind, before any hub
        filter; stays readable after the block)."""
        return list(self._records)
