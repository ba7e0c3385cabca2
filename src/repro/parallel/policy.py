"""What a fan-out is told and what it reports back.

:class:`FanoutPolicy` (the supervision knobs), :class:`ShardFailure`
(the tombstone of a quarantined cell) and :class:`SupervisorStats` (the
accounting recorded in run manifests), plus the ambient declarations a
CLI makes once instead of passing arguments through every experiment
module: :func:`supervision` and :func:`journaling`.

Import-light on purpose: ``fanout_map`` builds a policy and merges the
stats, but only a real ``--jobs N`` fan-out needs the supervisor and its
worker processes, and only ``--resume`` needs the journal.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.telemetry.context import ambient, scope

if TYPE_CHECKING:
    from repro.parallel.journal import CellJournal

__all__ = ["FanoutPolicy", "ShardFailure", "SupervisorStats",
           "current_journal", "current_policy", "journaling", "supervision"]


@dataclass(frozen=True)
class FanoutPolicy:
    """Supervision knobs for one fan-out.

    The defaults are the legacy semantics: one attempt per shard, no
    deadline, failures propagate.  Every field is deterministic by
    construction — backoff has no jitter, and retry
    schedules never touch cell results (cells are pure functions of
    their seeds, so *when* a cell runs cannot change *what* it
    returns).
    """

    #: Total attempts allowed per shard (1 = no retry).
    max_attempts: int = 1
    #: First-retry backoff in seconds; attempt ``n`` waits
    #: ``backoff_base * 2**(n-1)``, capped at :attr:`backoff_cap`.
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    #: Reap a started shard after this many seconds of heartbeat
    #: silence (None = never reap).  Measured from the last heartbeat,
    #: not the submission — a shard that keeps completing flows keeps
    #: itself alive.
    heartbeat_timeout: Optional[float] = None
    #: Convert a shard that exhausts its budget into a
    #: :class:`ShardFailure` result instead of raising.
    quarantine: bool = False
    #: Supervisor wake-up interval (scheduling granularity), seconds.
    check_interval: float = 0.05

    def backoff(self, failures: int) -> float:
        """Deterministic backoff before retry number ``failures``."""
        if failures <= 0:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (failures - 1)))


@dataclass
class ShardFailure:
    """A quarantined shard: the structured tombstone left in the result
    slot when a cell exhausted its retry budget."""

    index: int
    label: str
    #: ``exception`` (worker raised), ``crash`` (worker process died),
    #: or ``hang`` (heartbeat-silent past the deadline, reaped).
    kind: str
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
        }

    def __str__(self) -> str:
        return (f"shard {self.index} [{self.label}] {self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")


@dataclass
class SupervisorStats:
    """Per-fan-out supervision accounting (merged into the run-level
    accumulator by ``fanout_map``; recorded in run manifests)."""

    shards: int = 0
    #: Task submissions, including retries.
    attempts: int = 0
    retries: int = 0
    #: Hung workers SIGKILLed by the heartbeat deadline.
    reaped: int = 0
    pool_respawns: int = 0
    #: Journal-replayed shards (skipped entirely).
    replayed: int = 0
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "attempts": self.attempts,
            "retries": self.retries,
            "reaped": self.reaped,
            "pool_respawns": self.pool_respawns,
            "replayed": self.replayed,
            "quarantined": [dict(q) for q in self.quarantined],
        }

    def merge(self, other: "SupervisorStats") -> None:
        self.shards += other.shards
        self.attempts += other.attempts
        self.retries += other.retries
        self.reaped += other.reaped
        self.pool_respawns += other.pool_respawns
        self.replayed += other.replayed
        self.quarantined.extend(other.quarantined)


# ----------------------------------------------------------------------
# Ambient declarations (the ``policy`` / ``journal`` slots of the run
# context): a CLI enables retries or resume without passing arguments
# through every experiment module
# ----------------------------------------------------------------------


def current_policy() -> Optional[FanoutPolicy]:
    """The ambient supervision policy, or None (legacy semantics).

    The slot holds the policy's keyword fields, so a CLI declares them
    without importing this package, and a run that never fans out
    never does."""
    fields = ambient.policy
    return None if fields is None else FanoutPolicy(**fields)


def supervision(policy: Optional[FanoutPolicy]):
    """Apply ``policy`` to every ``fanout_map`` in the block."""
    return scope(policy=None if policy is None else asdict(policy))


def current_journal() -> Optional[CellJournal]:
    """The ambient cell journal, or None."""
    return ambient.journal


@contextmanager
def journaling(journal: Optional[CellJournal]) -> Iterator[Optional[CellJournal]]:
    """Route every ``fanout_map`` in the block through ``journal``
    (closed on exit)."""
    try:
        with scope(journal=journal):
            yield journal
    finally:
        if journal is not None:
            journal.close()
