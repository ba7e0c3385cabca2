"""The auditor core and the ``AuditSession`` context manager.

:class:`Auditor` ties the pieces together: every trace record is fed to
the lineage tracer, the flight recorder's ring, and each invariant
checker; a checker's violation gets its packet's causal chain attached
from the tracer and — the first time — freezes the post-mortem bundle,
written when an output directory is configured.  A ``sim.crash``
record triggers the bundle too, violations or not, so a crashed run
leaves its last moments on disk.

:class:`AuditSession` is the wiring: as a context manager it subscribes
the auditor (declaring the packet-lineage kinds, so ``pkt.*`` events
flow for the duration) to the run's trace stream through
:func:`repro.telemetry.context.attached` — the ambient hub's recorder
(composing with ``--telemetry``), or a ring-bounded one of its own.
Sessions nest like breakdown sessions: :func:`repro.parallel.fanout_map`
audits each cell in its own session and merges what :meth:`shipped`
returns through :meth:`absorb`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.invariants import Checker, Violation, default_checkers
from repro.audit.lineage import LineageTracer
from repro.audit.recorder import FlightRecorder
from repro.sim.trace import TraceRecorder
from repro.telemetry import context
from repro.telemetry.hub import ring_recorder
from repro.telemetry.schema import EV_SIM_CRASH, LINEAGE_EVENT_KINDS

__all__ = ["Auditor", "AuditSession"]


class Auditor:
    """Feeds the event stream to lineage, checkers, and the recorder.

    Parameters
    ----------
    checkers:
        Invariant checkers to run; defaults to the full suite from
        :func:`repro.audit.invariants.default_checkers`.
    out_dir:
        Post-mortem bundle directory.  When set, the bundle is written
        on the first violation (or crash); when None, it is only
        frozen in memory (:attr:`FlightRecorder.bundle`).
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
        #: Packet spans retained by absorbed fan-out cells' tracers.
        self.spans_absorbed = 0
        self._finalized = False
        # kind -> the ``observe`` of each observer subscribed to it.
        self._routes: Dict[str, Tuple[Callable, ...]] = {}

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

    def _dump(self, reason: str) -> None:
        if self.recorder.bundle is None:
            self.recorder.dump(self.out_dir, self.violations,
                               tracer=self.tracer, reason=reason)

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
            f"{len(self.tracer) + self.spans_absorbed} packet spans, "
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
    piggybacks on its trace recorder: observers run *before* kind
    filtering, so user ``--trace-kinds`` filters don't blind the audit.
    With no enabled recorder ambient, the session brings a ring-bounded
    one (same bound as a telemetry hub's, so experiments that read
    ``sim.trace.records()`` directly — fig3's walk-through — keep
    working); metrics and profiling stay whatever they were, so
    ``--audit`` alone costs the audit plus in-memory tracing, not full
    telemetry.  That ring is readable inside the session only: it is
    cleared on exit.  :attr:`trace` is the recorder observed (None until
    entered).

    One entered inside another suspends the enclosing session's auditor
    until it exits (the precondition of nested breakdown sessions: no
    flow of the enclosing session is live across the block).
    """

    def __init__(self, out_dir: Optional[str] = None,
                 checkers: Optional[List[Checker]] = None,
                 ring_size: int = 4000, max_spans: int = 200_000) -> None:
        self.auditor = Auditor(checkers=checkers, out_dir=out_dir,
                               ring_size=ring_size, max_spans=max_spans)
        self.trace: Optional[TraceRecorder] = None

    def __enter__(self) -> "AuditSession":
        # The auditor counts and rings every record it is handed; what
        # it declares only switches lineage on.
        self._attachment = context.attached(
            "audit", self.auditor.observe, LINEAGE_EVENT_KINDS,
            ring_recorder, session=self)
        self.trace = self._attachment.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._attachment.__exit__(*exc)
        self.auditor.finalize()

    # -- fan-out cells -------------------------------------------------

    def shipped(self) -> tuple:
        """What a fan-out cell hands back of its exited session: events
        audited, packet spans retained, violations (ids and chains as
        the cell's process saw them) and the frozen bundle, if any."""
        auditor = self.auditor
        return (auditor.events_audited, len(auditor.tracer),
                auditor.violations, auditor.recorder.bundle)

    def absorb(self, shipped) -> None:
        """Merge cells' :meth:`shipped` audits in cell order; the first
        cell bundle is written unless this session has its own."""
        auditor = self.auditor
        for events, spans, violations, bundle in shipped:
            auditor.events_audited += events
            auditor.spans_absorbed += spans
            auditor.violations.extend(violations)
            auditor.recorder.adopt(bundle, auditor.out_dir)

    # Convenience passthroughs -----------------------------------------

    @property
    def violations(self) -> List[Violation]:
        return self.auditor.violations

    @property
    def clean(self) -> bool:
        return self.auditor.clean

    def report(self) -> str:
        return self.auditor.report()
