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

    The defaults are the legacy semantics: no deadline, the first
    failure propagates.  Each cell is handed out exactly once: cells
    are deterministic functions of their seeds, so a cell that raises,
    crashes or hangs does the same on every attempt.
    """

    #: Reap a started shard after this many seconds of heartbeat
    #: silence (None = never reap).  Measured from the worker's last
    #: liveness message, not the submission — a shard that keeps
    #: completing flows keeps itself alive.
    heartbeat_timeout: Optional[float] = None
    #: Convert a failed shard into a :class:`ShardFailure` result
    #: instead of raising.
    quarantine: bool = False


@dataclass
class ShardFailure:
    """A quarantined shard: the structured tombstone left in the result
    slot when a cell failed."""

    index: int
    label: str
    #: ``exception`` (worker raised), ``crash`` (worker process died),
    #: or ``hang`` (heartbeat-silent past the deadline, reaped).
    kind: str
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "error": self.error,
        }

    def __str__(self) -> str:
        return f"shard {self.index} [{self.label}] {self.kind}: {self.error}"


@dataclass
class SupervisorStats:
    """Per-fan-out supervision accounting (merged into the run-level
    accumulator by ``fanout_map``; recorded in run manifests)."""

    shards: int = 0
    #: Hung workers SIGKILLed by the heartbeat deadline.
    reaped: int = 0
    pool_respawns: int = 0
    #: Journal-replayed shards (skipped entirely).
    replayed: int = 0
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "reaped": self.reaped,
            "pool_respawns": self.pool_respawns,
            "replayed": self.replayed,
            "quarantined": [dict(q) for q in self.quarantined],
        }

    def merge(self, other: "SupervisorStats") -> None:
        self.shards += other.shards
        self.reaped += other.reaped
        self.pool_respawns += other.pool_respawns
        self.replayed += other.replayed
        self.quarantined.extend(other.quarantined)


# ----------------------------------------------------------------------
# Ambient declarations (the ``policy`` / ``journal`` slots of the run
# context): a CLI enables reaping, quarantine or resume without passing
# arguments through every experiment module
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
