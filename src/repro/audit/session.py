"""The auditor core and the ``AuditSession`` context manager.

:class:`Auditor` ties the pieces together: every trace record is fed to
the lineage tracer, the flight recorder's ring, and each invariant
checker; a checker's violation gets its packet's causal chain attached
from the tracer and — the first time, when an output directory is
configured — triggers the post-mortem bundle.  A ``sim.crash`` record
triggers the bundle too, violations or not, so a crashed run leaves its
last moments on disk.

:class:`AuditSession` is the wiring: as a context manager it attaches
the auditor to whatever telemetry hub is ambient (composing with
``--telemetry``), or — when none is — installs itself as a minimal hub
carrying only a ring-bounded trace recorder.  Either way lineage events
are switched on for the duration and the previous state is restored on
exit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.invariants import Checker, Violation, default_checkers
from repro.audit.lineage import LineageTracer
from repro.audit.recorder import FlightRecorder
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.telemetry import context
from repro.telemetry.hub import DEFAULT_MAX_RECORDS
from repro.telemetry.schema import EV_SCHED_EXEC, EV_SIM_CRASH

__all__ = ["Auditor", "AuditSession"]

#: Post-mortems render at most this many events of the same-timestamp
#: group the run was inside when the bundle was written.
MAX_INSTANT_GROUP = 200


class Auditor:
    """Feeds the event stream to lineage, checkers, and the recorder.

    Parameters
    ----------
    checkers:
        Invariant checkers to run; defaults to the full suite from
        :func:`repro.audit.invariants.default_checkers`.
    out_dir:
        Post-mortem bundle directory.  When set, the bundle is written
        on the first violation (or crash); when None, violations are
        only collected in memory.
    ring_size / max_spans:
        Bounds for the flight-recorder ring and the lineage span store.
    """

    def __init__(self, checkers: Optional[List[Checker]] = None,
                 out_dir: Optional[str] = None, ring_size: int = 4000,
                 max_spans: int = 200_000) -> None:
        self.checkers = (list(checkers) if checkers is not None
                         else default_checkers())
        self.out_dir = out_dir
        self.tracer = LineageTracer(max_spans=max_spans)
        self.recorder = FlightRecorder(ring_size=ring_size)
        self.violations: List[Violation] = []
        self.events_audited = 0
        self._finalized = False
        # kind -> the ``observe`` of each observer subscribed to it.
        self._routes: Dict[str, Tuple[Callable, ...]] = {}
        # The v5 ``sched.exec`` records of the same-timestamp event
        # group currently executing, rendered only when a post-mortem is
        # written.  Bounded (one record past the cap marks truncation):
        # a post-mortem wants the local tie-break context, not an
        # unbounded same-instant burst.
        self._instant: List[TraceRecord] = []
        self._instant_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------

    def observe(self, record) -> None:
        """Audit one trace record (the observer callback)."""
        self.events_audited += 1
        self.recorder.observe(record)
        kind = record.kind
        handlers = self._routes.get(kind)
        if handlers is None:
            handlers = self._route(kind)
        if kind == EV_SCHED_EXEC:
            self._track_instant(record)
        for handler in handlers:
            found = handler(record)
            if found:
                for violation in found:
                    self._add(violation)
        if kind == EV_SIM_CRASH:
            self._dump(f"crash: {record.detail.get('error', '?')}")

    def _route(self, kind: str) -> Tuple[Callable, ...]:
        """The observers subscribed to ``kind``, in calling order.

        The tracer leads (a violation's chain is rendered from it), then
        the checkers in list order, so the sender-knowledge helper still
        sees a record before its dependents judge it.  Built on the
        first record of each kind.  Only the observers' own bound
        methods go in: one of the auditor's would make it, and the
        tracer and flight ring with it, cyclic garbage.
        """
        handlers = self._routes[kind] = tuple(
            observer.observe for observer in (self.tracer, *self.checkers)
            if observer.kinds is None or kind in observer.kinds)
        return handlers

    def finalize(self) -> "Auditor":
        """Flush end-of-stream checks; idempotent.  Returns self."""
        if self._finalized:
            return self
        self._finalized = True
        for checker in self.checkers:
            for violation in checker.finalize():
                self._add(violation)
        if self.violations:
            self._dump("violation")
        return self

    def _add(self, violation: Violation) -> None:
        if not violation.chain:
            span = None
            if violation.uid is not None:
                span = self.tracer.span(violation.uid)
            if span is None and (violation.flow is not None
                                 and violation.seq is not None):
                span = self.tracer.span_for_seq(violation.flow, violation.seq)
            if span is not None:
                violation.uid = span.uid
                violation.chain = self.tracer.render_chain(span.uid)
        self.violations.append(violation)
        self._dump("violation")

    def _track_instant(self, record) -> None:
        """Maintain the group of events at the current instant."""
        if record.time != self._instant_time:
            self._instant_time = record.time
            self._instant = []
        if len(self._instant) <= MAX_INSTANT_GROUP:
            self._instant.append(record)

    def _render_instant(self) -> List[str]:
        """The current group as "entity callback (seq N, parent M)"."""
        lines = [
            f"t={record.time:.9f} {record.source} "
            f"{record.detail.get('callback', '?')} "
            f"(seq {record.detail.get('seq')}, "
            f"parent {record.detail.get('parent')})"
            for record in self._instant[:MAX_INSTANT_GROUP]]
        if len(self._instant) > MAX_INSTANT_GROUP:
            lines.append("  ... group truncated")
        return lines

    def _dump(self, reason: str) -> None:
        if self.out_dir is not None:
            self.recorder.dump(self.out_dir, self.violations,
                               tracer=self.tracer, reason=reason,
                               instant_group=self._render_instant())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [
            f"audited {self.events_audited} events, "
            f"{len(self.tracer)} packet spans, "
            f"{len(self.checkers)} checkers",
        ]
        if self.clean:
            lines.append("all invariants hold")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            lines.extend(f"  {v.render()}" for v in self.violations)
            if self.recorder.bundle_dir:
                lines.append(f"post-mortem bundle: {self.recorder.bundle_dir}")
        return "\n".join(lines)


class AuditSession:
    """Context manager wiring an :class:`Auditor` into the trace stream.

    With a telemetry hub already active (``--telemetry``), the auditor
    piggybacks on its trace recorder: an observer is attached — which
    runs *before* kind filtering, so user ``--trace-kinds`` filters
    don't blind the audit — and lineage events are enabled.  With no
    hub active, the session becomes the ambient hub itself, carrying a
    ring-bounded trace recorder (same bound as a telemetry hub's);
    metrics and profiling stay off, so ``--audit`` alone costs the
    audit plus in-memory tracing, not full telemetry.  That ring is
    readable (``sim.trace.records()``) inside the session only: it is
    cleared on exit.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 checkers: Optional[List[Checker]] = None,
                 ring_size: int = 4000, max_spans: int = 200_000) -> None:
        self.auditor = Auditor(checkers=checkers, out_dir=out_dir,
                               ring_size=ring_size, max_spans=max_spans)
        # Hub surface for Simulator pickup when we are the ambient hub.
        self.trace: Optional[TraceRecorder] = None
        self.metrics = None
        self.profiler = None
        self._host_trace: Optional[TraceRecorder] = None
        self._restore_lineage = False
        self._restore_provenance = False
        self._owns_context = False

    def __enter__(self) -> "AuditSession":
        hub = context.current_hub()
        if hub is not None and hub.trace is not None:
            self._host_trace = hub.trace
        else:
            # Same ring bound as a Telemetry hub's recorder: experiments
            # that read ``sim.trace.records()`` directly (fig3's
            # walk-through) keep working under a bare ``--audit``.
            self.trace = TraceRecorder(enabled=True,
                                       max_records=DEFAULT_MAX_RECORDS)
            self._host_trace = self.trace
            context.activate(self)
            self._owns_context = True
        self._restore_lineage = self._host_trace.lineage
        self._restore_provenance = getattr(self._host_trace,
                                           "provenance", False)
        self._host_trace.lineage = True
        # Provenance events feed the scheduler-nondeterminism checker
        # and give post-mortems their same-instant group context.
        self._host_trace.provenance = True
        self._host_trace.add_observer(self.auditor.observe)
        return self

    def __exit__(self, *exc) -> None:
        trace = self._host_trace
        if trace is not None:
            trace.remove_observer(self.auditor.observe)
            trace.lineage = self._restore_lineage
            trace.provenance = self._restore_provenance
        if self._owns_context:
            context.deactivate(self)
            self._owns_context = False
            # Our own ring: the run's topology (a link <-> node cycle)
            # keeps ``sim.trace`` reachable until a full collection, so
            # release the records now.  A host hub's ring is the hub's.
            trace.clear()
        self._host_trace = None
        self.auditor.finalize()

    # Convenience passthroughs -----------------------------------------

    @property
    def violations(self) -> List[Violation]:
        return self.auditor.violations

    @property
    def clean(self) -> bool:
        return self.auditor.clean

    def report(self) -> str:
        return self.auditor.report()
