"""Scoped provenance recording for happens-before analysis.

:class:`ProvenanceSession` is wired like
:class:`repro.audit.session.AuditSession`
(:func:`repro.telemetry.context.attached`): it subscribes a collector
declaring the kinds :class:`~repro.hb.graph.HBGraph` reads, which turns
the recorder's ``provenance`` and ``lineage`` on for the duration — on
the ambient hub's recorder when one is enabled, otherwise on an
unfiltered one of its own — so simulators built inside the ``with``
block emit the full ``sched.exec`` + ``pkt.*`` stream the graph builder
needs.

The collection is unbounded by default — a happens-before graph needs
every event of the run, not a ring suffix — so sessions are meant for
quick, scoped runs (the ``python -m repro hb`` CLI uses quick scales).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.hb.graph import HBGraph
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.telemetry import context

__all__ = ["ProvenanceSession"]


class ProvenanceSession:
    """Context manager that turns on provenance (+ lineage) recording.

    Parameters
    ----------
    max_records:
        Optional bound on the records kept (newest win), and on the ring
        of the recorder brought when no hub is active; None (the
        default) keeps every record so the graph covers the whole run.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        self.max_records = max_records
        self._records: deque = deque(maxlen=max_records)

    def __enter__(self) -> "ProvenanceSession":
        self._attachment = context.attached(
            "provenance", self._records.append, HBGraph.kinds,
            lambda: TraceRecorder(max_records=self.max_records))
        self._attachment.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._attachment.__exit__(*exc)

    def records(self) -> List[TraceRecord]:
        """The stream recorded so far (every kind, before any hub
        filter; stays readable after the block)."""
        return list(self._records)
