"""The scheduler-nondeterminism audit checker.

A streaming :class:`~repro.audit.invariants.Checker` over the v5
``sched.exec`` provenance events: within every group of same-timestamp
executed events, any pair that runs against the *same entity* (the
shared-mutable-state proxy) must be connected by a causal
happens-before path — a scheduling-parent chain, a timer set→fire, or
a packet tx→deliver / data→ACK edge.  A pair that is not is a genuine
execution-order sensitivity: the scheduler's FIFO tie-break, not the
model, decided which ran first, and a permuted tie-break
(:mod:`repro.hb.perturb`) could change the run's observable results —
exactly the failure mode that would silently break the repo's
fingerprint guarantees.

The entity is an object-granularity proxy, so an owner whose callbacks
run against provably disjoint halves can over-report; such owners
refine the proxy by declaring ``HB_PARTITIONS`` (see
:meth:`repro.sim.simulator.Simulator._event_entity` and
:class:`repro.net.link.Link`, whose delivery pipe is independent of
its serializer).

The edge rules and the per-group race rule are
:mod:`repro.hb.ties`'s — the same ones ``python -m repro hb races``
applies — and the checker holds one tie group at a time, so its memory
is bounded by the largest same-instant burst.

The checker is inert on traces without provenance events (the default),
so it rides in :func:`repro.audit.invariants.default_checkers` at zero
cost to existing audited runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.audit.invariants import Checker, Violation
from repro.hb.ties import CAUSAL_KINDS, TieGroup, TieGroupScanner

__all__ = ["SchedulerNondeterminismChecker"]

#: Tie groups larger than this are not analyzed (quadratic-ish pair
#: work on a same-instant burst this size would stall the audit); the
#: skip is surfaced as a violation so it cannot pass silently.
MAX_GROUP = 10_000


class SchedulerNondeterminismChecker(Checker):
    """Flag same-timestamp, same-entity event pairs with no HB path."""

    name = "scheduler-nondeterminism"
    kinds = CAUSAL_KINDS

    def __init__(self) -> None:
        self._scanner = TieGroupScanner()

    def observe(self, record) -> List[Violation]:
        return self._judge(self._scanner.observe(record))

    def finalize(self) -> List[Violation]:
        return self._judge(self._scanner.close())

    def _judge(self, group: Optional[TieGroup]) -> List[Violation]:
        if group is None:
            return []
        if len(group.events) > MAX_GROUP:
            return [Violation(
                checker=self.name, time=group.time,
                message=(f"tie group of {len(group.events)} same-timestamp "
                         f"events exceeds the {MAX_GROUP}-event analysis "
                         "bound; nondeterminism not checked at this "
                         "instant"),
            )]
        return [
            Violation(
                checker=self.name, time=group.time,
                message=(f"entity {entity!r}: {cb_a} (seq {seq_a}) "
                         f"and {cb_b} (seq {seq_b}) fire at one "
                         "instant with no happens-before path; "
                         "tie-break order can change results"),
                seq=seq_a,
            )
            for entity, seq_a, cb_a, seq_b, cb_b in group.unordered_pairs()
        ]
