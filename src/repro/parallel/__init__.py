"""Process-parallel fan-out for sweep harnesses.

Every sweep in this repository is a matrix of *cells*, and every cell
is a deterministic function of its own derived seed — no cell reads
another cell's state, the simulator uses no wall-clock time, and the
named RNG streams are keyed by strings, not object identities.  That
makes fan-out trivially safe: run each cell in a worker process and
merge the results **in the original cell order**.  A parallel sweep is
then bit-identical to a serial one — same records, same report, same
fingerprint — only faster.

:func:`fanout_map` is the one primitive: an order-preserving ``map``
over a worker function, serial for ``jobs <= 1`` and otherwise handed
to :class:`~repro.parallel.supervisor.ShardSupervisor`, which runs
cells on worker processes it starts and watches itself.  Workers must
be module-level functions and the items/results picklable; all sweep
cells here satisfy that (plain dataclasses end to end).

Three ambient integrations make runs observable and resilient instead
of opaque and brittle:

* **worker environment** — ``--telemetry``, ``--chaos`` and
  ``--procfault`` sessions live in parent-process context variables a
  worker process would silently miss.  :func:`worker_env` declares a
  picklable :class:`WorkerEnv` that every worker re-activates for its
  whole life.
* **observation** — under an ambient
  :class:`~repro.audit.session.AuditSession` and/or
  :class:`~repro.obs.critical.BreakdownSession` every cell, inline or
  in a worker, runs in its own nested session of each and ships what
  they saw back beside its value; the run-level sessions absorb those
  in cell order and callers get bare values, so ``--audit``,
  ``--breakdown`` and ``--trace-viewer`` are the same for any ``jobs``.
  The observation is part of each cell's journal digest.
* **supervision & journaling** — :func:`supervision` declares a
  :class:`FanoutPolicy` (heartbeat-deadline reaping of hung workers,
  which post a liveness message as each shard starts and, throttled,
  whenever the cell calls :func:`repro.telemetry.context.alive`;
  failed-cell quarantine) and :func:`journaling` a
  :class:`CellJournal` that records each completed cell durably so an
  interrupted or degraded sweep resumes instead of restarting.  Each
  cell runs once: a deterministic cell that failed would fail again,
  so there is no retry.  The default policy is the legacy behavior:
  first failure propagates.

Importing this package costs :mod:`~repro.parallel.policy` only, and a
run that never fans out imports neither: it declares the policy's
fields and finds its counters in the ambient run context.  The worker
plumbing, the journal and the supervisor — and with it
``multiprocessing`` — load when a fan-out first needs them.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, TypeVar)

from repro._lazy import lazy_exports
from repro.parallel.policy import (
    FanoutPolicy,
    ShardFailure,
    SupervisorStats,
    current_journal,
    current_policy,
    journaling,
    supervision,
)
from repro.telemetry.context import ambient, enter

if TYPE_CHECKING:
    from repro.parallel.journal import CellJournal

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "journal": ("CellJournal", "cell_digest"),
    "pool": ("WorkerEnv", "current_worker_env", "resolve_jobs", "worker_env"),
    "supervisor": ("ShardSupervisor",),
})
__all__ += [
    "FanoutPolicy",
    "ShardFailure",
    "SupervisorStats",
    "current_journal",
    "current_policy",
    "fanout_map",
    "fanout_stats",
    "journaling",
    "reset_fanout_stats",
    "supervision",
]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

_DEFAULT_POLICY = FanoutPolicy()

# ----------------------------------------------------------------------
# Run-level supervision accounting (the ``fanout`` slot of the run
# context)
# ----------------------------------------------------------------------


def fanout_stats() -> dict:
    """Supervision counters accumulated since the last reset (every
    ``fanout_map`` call merges in; CLIs record this in the manifest)."""
    return (ambient.fanout or SupervisorStats()).to_dict()


def reset_fanout_stats() -> None:
    """Zero the run-level supervision counters."""
    enter(fanout=None)


def _account(stats: SupervisorStats) -> None:
    if ambient.fanout is None:
        enter(fanout=SupervisorStats())
    ambient.fanout.merge(stats)


# ----------------------------------------------------------------------
# Serial supervision (jobs <= 1)
# ----------------------------------------------------------------------


def run_serial(
    worker: Callable[[Any], Any],
    items: Sequence[Any],
    policy: FanoutPolicy,
    on_result: Optional[Callable[[int, Any, dict], None]] = None,
    results: Optional[Dict[int, Any]] = None,
    stats: Optional[SupervisorStats] = None,
) -> List[Any]:
    """The in-process twin of :class:`ShardSupervisor`: same quarantine
    semantics, no pool (so no reaping — a hang here hangs the caller,
    which is what serial means)."""
    from repro.parallel.pool import _cell_ties, _item_label, _run_shard

    items = list(items)
    results = dict(results or {})
    if stats is None:
        stats = SupervisorStats(shards=len(items))
    for index, item in enumerate(items):
        if index in results:
            continue
        try:
            value, ties = _cell_ties(_run_shard, worker, index, item)
        except Exception as exc:
            if not policy.quarantine:
                raise
            failure = ShardFailure(index, _item_label(item), "exception",
                                   str(exc))
            stats.quarantined.append(failure.to_dict())
            results[index] = failure
            continue
        results[index] = value
        if on_result is not None:
            on_result(index, value, ties)
    return [results[i] for i in range(len(items))]


# ----------------------------------------------------------------------
# The fan-out primitive
# ----------------------------------------------------------------------


def fanout_map(
    worker: Callable[[_Item], _Result],
    items: Iterable[_Item],
    jobs: int = 1,
    policy: Optional[FanoutPolicy] = None,
    journal: Optional[CellJournal] = None,
) -> List[_Result]:
    """Map ``worker`` over ``items``, preserving input order.

    ``jobs <= 1`` (or a single item) runs serially in-process — the
    zero-overhead baseline parallel runs must match.  Otherwise items
    are dispatched to supervised worker processes, and results keep
    input order regardless of completion order, which is what keeps
    merged sweep reports (and their fingerprints) bit-identical to
    serial runs.

    ``worker`` must be picklable (a module-level function), as must the
    items and results.  Each item runs once.  Under the default policy a
    worker exception propagates to the caller, matching the serial
    path's behavior; ``policy`` (or an ambient :func:`supervision`
    block) buys hung-shard reaping and quarantine — see
    :class:`FanoutPolicy`.  With quarantine on, failed slots hold
    :class:`ShardFailure` records instead of raising.

    ``journal`` (or an ambient :func:`journaling` block) makes the run
    resumable: completed cells are replayed by digest, the rest are
    recorded as they finish.

    When a :class:`WorkerEnv` is declared (see :func:`worker_env`),
    workers re-activate the parent's telemetry/chaos/procfault sessions
    before their first item; when an audit or breakdown session is
    active, each item is observed in its own and merged into it in item
    order.
    """
    from repro.parallel import pool as _pool

    items = list(items)
    if policy is None:
        policy = current_policy() or _DEFAULT_POLICY
    if journal is None:
        journal = current_journal()
    workers = _pool.resolve_jobs(jobs, len(items))
    audit, breakdown = ambient.audit, ambient.breakdown
    observe = {}
    if audit is not None:
        observe["audit"] = audit.auditor.out_dir
    if breakdown is not None:
        observe["breakdown"] = breakdown.keep_spans

    # Journal replay: resolve already-completed cells by digest.
    replayed: Dict[int, _Result] = {}
    digests: List[str] = []
    if journal is not None:
        from repro.parallel.journal import cell_digest
        from repro.sim.simulator import fold_tie_break_stats

        recorded = journal.replay()
        for index, item in enumerate(items):
            # What observes a cell is part of its identity: a journaled
            # value carries what its sessions shipped, or does not.
            key = item if breakdown is None else (
                item, "breakdown", breakdown.keep_spans)
            digest = cell_digest(worker, key if audit is None
                                 else (key, "audit"))
            digests.append(digest)
            if digest in recorded:
                value, ties = recorded[digest]
                # A journal only ever holds real results, but heal a
                # hand-edited one: a failure tombstone re-runs its cell.
                if isinstance(value, ShardFailure):
                    continue
                replayed[index] = value
                # Counted as if the cell had run, in cell order.
                fold_tie_break_stats(ties)

    def on_result(index: int, value: _Result, ties: dict) -> None:
        if journal is not None and index not in replayed:
            journal.append(digests[index], _pool._item_label(items[index]),
                           value, ties)

    if observe:
        # Each cell is observed in its own nested sessions, inline or in
        # a worker alike, and ships them back beside its value
        # (DESIGN.md §6).
        from repro.obs.critical import id_marks

        marks = id_marks() if observe.get("breakdown") else None
        worker = partial(_pool._observed, observe, worker)

    if workers <= 1:
        stats = SupervisorStats(shards=len(items), replayed=len(replayed))
        try:
            results = run_serial(worker, items, policy, on_result=on_result,
                                 results=replayed, stats=stats)
        finally:
            _account(stats)
    else:
        from repro.parallel.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            worker, items, workers, policy, env=_pool.current_worker_env(),
            on_result=on_result, results=replayed)
        supervisor.stats.replayed = len(replayed)
        try:
            results = supervisor.run()
        finally:
            _account(supervisor.stats)
    if observe:
        # Serial cell order, replayed cells included: ``(value, audit's
        # shipped, breakdown's shipped)``, each when on.
        shipped = [result for result in results
                   if not isinstance(result, ShardFailure)]
        if audit is not None:
            audit.absorb([result[1] for result in shipped])
        if breakdown is not None:
            breakdown.absorb([result[-1] for result in shipped], marks)
        results = [result if isinstance(result, ShardFailure) else result[0]
                   for result in results]
    return results
