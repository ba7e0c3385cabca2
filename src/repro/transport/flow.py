"""Flow descriptions and completion records.

A :class:`FlowSpec` is the immutable description of one transfer (who,
how much, when, with which protocol); a :class:`FlowRecord` is filled in
as the flow runs and holds everything the experiment harness needs:
completion time, retransmission counts, timeouts, RTT estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import MSS

__all__ = ["FlowSpec", "FlowRecord", "flow_id_mark", "next_flow_id",
           "segments_for"]

_flow_ids = itertools.count(1)


def next_flow_id() -> int:
    """Allocate a globally unique flow id."""
    return next(_flow_ids)


def flow_id_mark(at_least: int = 0) -> int:
    """The next flow id, not allocated; first skips the counter forward
    to ``at_least`` (ids a fan-out's workers allocated for this run)."""
    global _flow_ids
    mark = max(next(_flow_ids), at_least)
    _flow_ids = itertools.count(mark)
    return mark


def segments_for(size_bytes: int) -> int:
    """Number of MSS-sized segments needed to carry ``size_bytes``."""
    if size_bytes <= 0:
        raise ConfigurationError("flow size must be positive")
    return math.ceil(size_bytes / MSS)


@dataclass(frozen=True)
class FlowSpec:
    """Immutable description of one transfer.

    Attributes
    ----------
    flow_id:
        Unique id; also the demultiplexing key on both hosts.
    src, dst:
        Sender and receiver host names.
    size:
        Payload bytes to transfer.
    protocol:
        Registry name of the sender scheme (e.g. ``"halfback"``).
    start_time:
        Simulated time at which the sender initiates the handshake.
    kind:
        Free-form tag used by experiments (``"short"``, ``"long"``,
        ``"web-object"`` ...).
    n_segments:
        Number of data segments in this flow; derived from ``size`` at
        construction, not an ``__init__`` argument.
    """

    flow_id: int
    src: str
    dst: str
    size: int
    protocol: str
    start_time: float = 0.0
    kind: str = "short"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError("flow size must be positive")
        if self.start_time < 0:
            raise ConfigurationError("start time must be non-negative")
        # Senders read the segment count per segment sent, so it is
        # computed once.  A plain attribute, deliberately not a field:
        # ``==``, ``repr``, ``asdict`` and ``fields()``-keyed digests do
        # not see it.  (Set at construction rather than cached on first
        # use: a late ``__dict__`` write costs every spec 56 more bytes.)
        object.__setattr__(self, "n_segments", segments_for(self.size))


@dataclass
class FlowRecord:
    """Mutable per-flow measurement record."""

    spec: FlowSpec
    #: Time the sender sent its first SYN.
    syn_time: Optional[float] = None
    #: Time the sender completed the handshake.
    established_time: Optional[float] = None
    #: Time the receiver held every payload byte.
    complete_time: Optional[float] = None
    #: Time the sender saw everything ACKed (>= complete_time).
    sender_done_time: Optional[float] = None
    #: First-transmission data packets sent.
    data_packets_sent: int = 0
    #: Normal (reactive) retransmissions: fast retransmit, RTO, probe.
    normal_retransmissions: int = 0
    #: Proactive retransmissions (ROPR / Proactive TCP duplicates).
    proactive_retransmissions: int = 0
    #: RTO expirations.
    timeouts: int = 0
    #: SYN retransmissions.
    syn_retransmissions: int = 0
    #: Duplicate data packets seen by the receiver.
    duplicate_receptions: int = 0
    #: Final smoothed RTT estimate (seconds).
    final_srtt: Optional[float] = None
    #: RTT sampled from the handshake (seconds).
    handshake_rtt: Optional[float] = None
    #: Corrupted packets the *sender* discarded on arrival (chaos runs).
    corrupted_discards: int = 0
    #: Why the sender gave up, when it did (``None`` for flows that are
    #: still running or completed).  The liveness contract (see
    #: :mod:`repro.chaos.sweep`) requires every failed flow to carry one
    #: of these structured reasons, e.g. ``"max-flow-duration"`` or
    #: ``"syn-retries-exhausted"``.
    abort_reason: Optional[str] = None
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def completed(self) -> bool:
        """True when the receiver has every byte."""
        return self.complete_time is not None

    @property
    def failed(self) -> bool:
        """True once the sender aborted the flow (see :attr:`abort_reason`)."""
        return self.abort_reason is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time including connection setup (paper §4.2.1):
        receiver-complete minus the flow's scheduled start."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.spec.start_time

    @property
    def total_retransmissions(self) -> int:
        """Normal plus proactive retransmissions."""
        return self.normal_retransmissions + self.proactive_retransmissions

    def rtts_used(self) -> Optional[float]:
        """FCT normalized by the handshake RTT (Fig. 7)."""
        if self.fct is None or not self.handshake_rtt:
            return None
        return self.fct / self.handshake_rtt

    def bandwidth_overhead(self) -> float:
        """Extra first-plus-retransmitted bytes relative to the flow size,
        as a fraction (0.5 means 50% extra packets were sent)."""
        total = (self.data_packets_sent + self.normal_retransmissions
                 + self.proactive_retransmissions)
        return total / self.spec.n_segments - 1.0
