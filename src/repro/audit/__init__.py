"""Runtime protocol auditing: lineage tracing + invariant checking.

The audit subsystem watches the telemetry event stream as a simulation
runs and checks the paper's per-packet causal properties — even pacing,
strictly reverse-ordered proactive retransmission, never resending
ACKed data, frontier-meet termination, packet conservation — as *live
invariants* instead of trusting the figures to look right.  Three
pieces:

* :mod:`repro.audit.lineage` — a packet lineage tracer that gives every
  packet a span (born at ``Host.send``), records its hop events, and
  links causal parents (the data packet behind an ACK, the original
  transmission behind a retransmit) into per-flow causal trees;
* :mod:`repro.audit.invariants` — pluggable checkers over the event
  stream producing structured :class:`Violation` records;
* :mod:`repro.audit.recorder` — a flight recorder keeping a bounded
  ring of recent events and dumping a post-mortem bundle (JSON
  violations + ASCII causal timeline) on the first violation or crash.

Use :class:`AuditSession` as a context manager (``with AuditSession():
run_experiment()``), the ``--audit`` flag on the experiments CLI, or
``python -m repro audit --replay trace.jsonl`` for offline replay.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "invariants": ("AckKnowledge", "Checker", "Violation", "default_checkers"),
    "lineage": ("LineageTracer", "PacketSpan"),
    "recorder": ("FlightRecorder",),
    "replay": ("iter_trace", "replay"),
    "session": ("AuditSession", "Auditor"),
})

# ``replay`` names both this export and the submodule providing it; bound
# now, a later ``import repro.audit.replay`` cannot leave the module in
# the function's place.
from repro.audit.replay import replay  # noqa: E402
