"""The documented trace-event schema.

Telemetry consumers (timelines, exporters, the audit subsystem,
downstream analysis) rely on each event kind carrying a stable set of
detail keys.  This module is the single source of truth: the event-name
constants below are what emitters *and* consumers (the
:mod:`repro.audit` invariant checkers included) import, so a renamed
event is a one-line change here instead of a string hunt across layers.
Emitters must include at least the keys listed in :data:`EVENT_SCHEMA`,
and the schema test suite runs every protocol and asserts compliance.

``flow``-keyed events feed per-flow timelines; packet-level events
(``queue.drop``, ``link.loss``, and the ``pkt.*`` lineage family)
identify the packet by ``uid`` instead (lineage events carry ``flow``
too, for per-flow causal trees).

Schema versions
---------------
* **v1** — the original telemetry schema (flow lifecycle, transport
  sender, protocol, and packet-drop events).
* **v2** — adds the packet-lineage family (``pkt.send``,
  ``pkt.enqueue``, ``pkt.tx``, ``pkt.deliver``, ``pkt.ack_gen``) emitted
  only when a trace recorder's ``lineage`` flag is on, plus the
  ``sim.crash`` post-mortem marker.
* **v3** — adds the chaos-engine family (``chaos.corrupt`` in-flight
  corruption, ``chaos.flap`` link up/down transitions, ``chaos.rate``
  bandwidth modulation steps, ``chaos.clone`` in-network duplication —
  the causal edge from a duplicating middlebox's clone back to the
  packet it copied), a ``reason`` key on ``sender.failed``
  (the structured abort reason the liveness contract requires), and an
  optional ``corrupted`` key on ``pkt.deliver`` so audit checkers can
  exclude discarded-at-endpoint packets from sender-knowledge state.
* **v4** — adds a ``ser`` key (serialization seconds at the emitting
  link's current rate) to ``pkt.tx``.  The FCT breakdown span builder
  (:mod:`repro.obs.spans`) needs the split point inside the
  ``pkt.tx`` → ``pkt.deliver`` span: ``[tx, tx+ser)`` is wire
  serialization, ``[tx+ser, deliver)`` is propagation.
* **v5** — added the scheduler-provenance family (``sched.exec``: one
  record per executed simulator event, with its owner entity and
  scheduling parent) for a happens-before race checker.
* **v6** — removes the ``sched.exec`` family with that checker.
  Schedule perturbation (:mod:`repro.hb.perturb`) checks the same
  claim on outcomes and reads no trace.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_SCHEMA", "FLOW_EVENT_KINDS", "LINEAGE_EVENT_KINDS",
    "required_keys", "missing_keys", "validate_records",
    # Event-name constants (v1).
    "EV_FLOW_START", "EV_FLOW_COMPLETE",
    "EV_SENDER_ESTABLISHED", "EV_SENDER_RECOVERY", "EV_SENDER_RTO",
    "EV_SENDER_DONE", "EV_SENDER_FAILED",
    "EV_HALFBACK_PHASE", "EV_HALFBACK_FRONTIER",
    "EV_JUMPSTART_PACING", "EV_JUMPSTART_PACING_DONE",
    "EV_REACTIVE_PROBE",
    "EV_QUEUE_DROP", "EV_LINK_LOSS",
    # Event-name constants (v2: packet lineage + post-mortem).
    "EV_PKT_SEND", "EV_PKT_ENQUEUE", "EV_PKT_TX", "EV_PKT_DELIVER",
    "EV_PKT_ACK_GEN", "EV_SIM_CRASH",
    # Event-name constants (v3: chaos engine).
    "EV_CHAOS_CORRUPT", "EV_CHAOS_FLAP", "EV_CHAOS_RATE",
    "EV_CHAOS_CLONE",
]

#: Version of the event contract documented here (see module docstring).
SCHEMA_VERSION = 6

# -- Experiment harness (flow lifecycle). ------------------------------
EV_FLOW_START = "flow.start"
EV_FLOW_COMPLETE = "flow.complete"
# -- Transport sender framework. ---------------------------------------
EV_SENDER_ESTABLISHED = "sender.established"
EV_SENDER_RECOVERY = "sender.recovery"
EV_SENDER_RTO = "sender.rto"
EV_SENDER_DONE = "sender.done"
EV_SENDER_FAILED = "sender.failed"
# -- Halfback. ---------------------------------------------------------
EV_HALFBACK_PHASE = "halfback.phase"
EV_HALFBACK_FRONTIER = "halfback.frontier"
# -- JumpStart. --------------------------------------------------------
EV_JUMPSTART_PACING = "jumpstart.pacing"
EV_JUMPSTART_PACING_DONE = "jumpstart.pacing_done"
# -- Reactive TCP. -----------------------------------------------------
EV_REACTIVE_PROBE = "reactive.probe"
# -- Network substrate (packet-level). ---------------------------------
EV_QUEUE_DROP = "queue.drop"
EV_LINK_LOSS = "link.loss"
# -- Packet lineage (v2; emitted only when ``trace.lineage`` is on). ---
#: A host originated a packet (span creation).
EV_PKT_SEND = "pkt.send"
#: A link's egress queue admitted the packet.
EV_PKT_ENQUEUE = "pkt.enqueue"
#: A link began serializing the packet.
EV_PKT_TX = "pkt.tx"
#: A link handed the packet to its destination node.
EV_PKT_DELIVER = "pkt.deliver"
#: The receiver generated an ACK in response to a data packet
#: (``parent`` is the triggering data packet's uid — the causal edge).
EV_PKT_ACK_GEN = "pkt.ack_gen"
#: The simulator aborted on an exception (post-mortem marker).
EV_SIM_CRASH = "sim.crash"
# -- Chaos engine (v3; see repro.chaos). -------------------------------
#: An impairment corrupted a packet in flight (delivered, then
#: discarded by the endpoint's checksum stand-in).
EV_CHAOS_CORRUPT = "chaos.corrupt"
#: A link-flap impairment took the link down or brought it back up.
EV_CHAOS_FLAP = "chaos.flap"
#: A bandwidth-modulation impairment changed the link's serialization
#: rate.
EV_CHAOS_RATE = "chaos.rate"
#: A duplicating middlebox admitted a clone of an offered packet
#: (``uid`` is the clone, ``clone_of`` the copied original).  Emitted
#: only when ``trace.lineage`` is on: the audit layer needs the causal
#: edge so a cloned ACK credits the sender with the same knowledge the
#: original would have, and the lineage tracer gives the clone a proper
#: span instead of an orphan.
EV_CHAOS_CLONE = "chaos.clone"

#: kind -> detail keys every emission must carry.
EVENT_SCHEMA: Dict[str, FrozenSet[str]] = {
    EV_FLOW_START: frozenset({"flow", "protocol", "size"}),
    EV_FLOW_COMPLETE: frozenset({"flow", "fct"}),
    EV_SENDER_ESTABLISHED: frozenset({"flow", "rtt"}),
    EV_SENDER_RECOVERY: frozenset({"flow", "point"}),
    EV_SENDER_RTO: frozenset({"flow", "timeouts"}),
    EV_SENDER_DONE: frozenset({"flow", "fct", "retx", "proactive"}),
    EV_SENDER_FAILED: frozenset({"flow", "reason"}),
    EV_HALFBACK_PHASE: frozenset({"flow", "phase"}),
    EV_HALFBACK_FRONTIER: frozenset({"flow", "ack", "pointer"}),
    EV_JUMPSTART_PACING: frozenset({"flow", "segments", "rate"}),
    EV_JUMPSTART_PACING_DONE: frozenset({"flow", "pipe"}),
    EV_REACTIVE_PROBE: frozenset({"flow", "seq"}),
    EV_QUEUE_DROP: frozenset({"packet", "uid"}),
    EV_LINK_LOSS: frozenset({"packet", "uid"}),
    # Packet lineage (v2).
    EV_PKT_SEND: frozenset({"uid", "flow", "type", "dst"}),
    EV_PKT_ENQUEUE: frozenset({"uid", "flow"}),
    EV_PKT_TX: frozenset({"uid", "flow", "ser"}),
    EV_PKT_DELIVER: frozenset({"uid", "flow", "dst"}),
    EV_PKT_ACK_GEN: frozenset({"uid", "flow", "parent", "ack"}),
    EV_SIM_CRASH: frozenset({"error"}),
    # Chaos engine (v3).
    EV_CHAOS_CORRUPT: frozenset({"packet", "uid", "chaos"}),
    EV_CHAOS_FLAP: frozenset({"link", "up"}),
    EV_CHAOS_RATE: frozenset({"link", "rate"}),
    EV_CHAOS_CLONE: frozenset({"uid", "clone_of", "flow"}),
}

#: Kinds that carry a ``flow`` key and belong on per-flow timelines.
#: Lineage events carry ``flow`` too but are packet-granular, so they
#: are excluded here and collected in :data:`LINEAGE_EVENT_KINDS`.
FLOW_EVENT_KINDS = frozenset(
    kind for kind, keys in EVENT_SCHEMA.items()
    if "flow" in keys and not kind.startswith("pkt.")
    and kind != EV_CHAOS_CLONE
)

#: The per-packet causal-tracing family: exactly the kinds emitted only
#: when ``trace.lineage`` is on.  The lineage tracer also consumes the
#: always-emitted, packet-keyed ``queue.drop``/``link.loss``; its full
#: subscription is ``repro.audit.lineage.LineageTracer.kinds``.
LINEAGE_EVENT_KINDS = frozenset({
    EV_PKT_SEND, EV_PKT_ENQUEUE, EV_PKT_TX, EV_PKT_DELIVER, EV_PKT_ACK_GEN,
    EV_CHAOS_CLONE,
})


def required_keys(kind: str) -> FrozenSet[str]:
    """Required detail keys for ``kind`` (empty set for unknown kinds)."""
    return EVENT_SCHEMA.get(kind, frozenset())


def missing_keys(record) -> FrozenSet[str]:
    """Schema keys absent from one record's detail payload."""
    return required_keys(record.kind) - record.detail.keys()


def validate_records(records) -> List[str]:
    """Schema violations across ``records`` as human-readable strings."""
    problems = []
    for record in records:
        missing = missing_keys(record)
        if missing:
            problems.append(
                f"{record.kind} at t={record.time:.6f} from "
                f"{record.source!r} missing keys {sorted(missing)}"
            )
    return problems
