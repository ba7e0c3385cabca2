"""Protocol-survival sweeps under chaos.

The sweep runs every registered protocol against every registered chaos
profile (one *cell* per combination) and enforces the **liveness
contract**:

1. every launched flow either completes (``DONE``) or fails through the
   sender's ``_give_up`` with a structured
   :attr:`~repro.transport.flow.FlowRecord.abort_reason` — a flow still
   pending at the horizon is a contract breach;
2. the simulator never stalls — a
   :class:`~repro.errors.StallError` from the no-progress watchdog is
   captured (with its pending-event dump) and fails the cell;
3. when auditing is on, the invariant checkers report zero violations
   under every impairment mix.  Auditing is an ambient
   ``AuditSession`` (``chaos sweep --audit`` enters one for the run);
   the fan-out audits each cell in its own nested session, which
   :func:`run_cell` reads.

Every cell is a deterministic function of the master seed: the cell's
simulator seed is derived from ``(master, protocol, profile)``, and a
sweep's :attr:`~SweepReport.fingerprint` hashes the canonical JSON of
all cell outcomes — two same-seed invocations must be bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos import context as _context
from repro.chaos.profiles import ChaosProfile, available_profiles, get_profile
from repro.errors import StallError
from repro.experiments.runner import launch_flow
from repro.net.topology import access_network
from repro.obs.sketch import QuantileSketch
from repro.parallel import ShardFailure, fanout_map
from repro.protocols.registry import ProtocolContext, available_protocols
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.telemetry.context import alive, ambient
from repro.transport.config import TransportConfig

__all__ = ["CellResult", "SweepReport", "run_cell", "run_sweep",
           "sweep_config"]

#: Per-flow give-up deadline inside a sweep cell (seconds, simulated).
#: Short enough that dead paths abort quickly, long enough for every
#: recoverable profile to finish.
CELL_FLOW_DEADLINE = 30.0

#: Flow arrival spacing inside a cell (staggered so the profiles hit
#: flows at different lifecycle points).
CELL_FLOW_SPACING = 0.05


def sweep_config() -> TransportConfig:
    """The transport configuration sweep cells run under.

    ``max_syn_retries`` is lowered so a dead path surfaces the
    ``syn-retries-exhausted`` abort before the flow deadline, exercising
    both structured abort reasons.
    """
    return TransportConfig(
        max_flow_duration=CELL_FLOW_DEADLINE,
        max_syn_retries=3,
    )


@dataclass
class CellResult:
    """Outcome of one protocol x profile cell."""

    protocol: str
    profile: str
    profile_seed: int
    flows: int
    completed: int = 0
    failed: int = 0
    #: Flows neither DONE nor FAILED at the horizon (liveness breach).
    pending: int = 0
    #: abort reason -> count, for the FAILED flows.
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    #: True when the no-progress watchdog fired.
    stalled: bool = False
    #: The StallError's pending-event dump (empty unless stalled).
    stall_dump: List[str] = field(default_factory=list)
    #: Rendered audit violations (empty unless audited and dirty).
    violations: List[str] = field(default_factory=list)
    #: Simulator events executed (determinism witness).
    events: int = 0
    #: Mean FCT over completed flows, seconds (None when none completed).
    mean_fct: Optional[float] = None
    #: Mergeable FCT quantile sketch over completed flows (fed one FCT
    #: at a time — the cell never retains per-flow record lists for it).
    fct_sketch: QuantileSketch = field(default_factory=QuantileSketch)

    @property
    def live(self) -> bool:
        """True when the liveness contract held for this cell."""
        return (not self.stalled and self.pending == 0
                and not self.violations)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON shape (fed to the sweep fingerprint)."""
        return {
            "protocol": self.protocol,
            "profile": self.profile,
            "profile_seed": self.profile_seed,
            "flows": self.flows,
            "completed": self.completed,
            "failed": self.failed,
            "pending": self.pending,
            "abort_reasons": dict(sorted(self.abort_reasons.items())),
            "stalled": self.stalled,
            "violations": list(self.violations),
            "events": self.events,
            "mean_fct": (None if self.mean_fct is None
                         else round(self.mean_fct, 9)),
            "fct_sketch": self.fct_sketch.to_dict(),
        }

    def summary(self) -> str:
        """Short cell status for the sweep table."""
        if self.stalled:
            return "STALLED"
        parts = [f"{self.completed} done"]
        if self.failed:
            reasons = ",".join(sorted(self.abort_reasons))
            parts.append(f"{self.failed} failed[{reasons}]")
        if self.pending:
            parts.append(f"{self.pending} PENDING")
        if self.violations:
            parts.append(f"{len(self.violations)} VIOLATIONS")
        return " ".join(parts)


@dataclass
class SweepReport:
    """All cells of one sweep plus the determinism fingerprint.

    ``failures`` lists quarantined cells (cells that raised, crashed
    or hung under supervision) as structured records naming the
    protocol/profile coordinates lost — a degraded sweep reports what
    is missing instead of dying.  The fingerprint hashes *completed*
    cells only, so a resumed run that fills the holes is byte-identical
    to an uninterrupted one.
    """

    cells: List[CellResult]
    seed: int
    audited: bool
    #: Quarantined-cell records: protocol, profile, kind, error.
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def live(self) -> bool:
        """True when every cell upheld the liveness contract."""
        return all(cell.live for cell in self.cells)

    @property
    def complete(self) -> bool:
        """True when no cell was lost to quarantine."""
        return not self.failures

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of every cell outcome."""
        canonical = json.dumps([cell.to_dict() for cell in self.cells],
                               sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def merged_fct_sketch(self) -> QuantileSketch:
        """All cells' FCT sketches merged into one.

        Sketch merging is associative and commutative over integer
        bucket counts, so this is bit-identical however the cells were
        computed — serial, ``--jobs N``, or re-merged from shards.
        """
        return QuantileSketch.merged(cell.fct_sketch for cell in self.cells)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "audited": self.audited,
            "live": self.live,
            "complete": self.complete,
            "fingerprint": self.fingerprint,
            "fct_sketch": self.merged_fct_sketch().to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "failures": [dict(f) for f in self.failures],
        }

    def format_report(self) -> str:
        """The protocol x profile survival table."""
        protocols = sorted({cell.protocol for cell in self.cells})
        profiles = sorted({cell.profile for cell in self.cells})
        by_key = {(c.protocol, c.profile): c for c in self.cells}
        proto_width = max([len(p) for p in protocols] + [8])
        lines = [
            f"chaos survival sweep: {len(protocols)} protocols x "
            f"{len(profiles)} profiles, seed={self.seed}, "
            f"audit={'on' if self.audited else 'off'}",
        ]
        for profile in profiles:
            lines.append(f"-- {profile} --")
            for protocol in protocols:
                cell = by_key.get((protocol, profile))
                if cell is None:
                    continue
                status = "ok " if cell.live else "BAD"
                lines.append(
                    f"  {status} {protocol:<{proto_width}} {cell.summary()}"
                )
                if cell.stalled:
                    lines.extend(f"      {entry}" for entry in cell.stall_dump)
                lines.extend(f"      {v}" for v in cell.violations[:4])
        merged = self.merged_fct_sketch()
        if merged.count:
            quantiles = " ".join(
                f"p{str(q * 100).rstrip('0').rstrip('.')}="
                f"{merged.quantile(q):.4f}s"
                for q in (0.50, 0.90, 0.99, 0.999))
            lines.append(f"merged FCT sketch ({merged.count} completed "
                         f"flows): {quantiles}")
        if self.failures:
            lines.append(f"-- MISSING ({len(self.failures)} quarantined "
                         f"cells) --")
            for failure in self.failures:
                lines.append(
                    f"  LOST {failure['protocol']} x {failure['profile']}: "
                    f"{failure['kind']}: {failure['error']}")
            lines.append("re-run with --resume to fill the missing cells")
        verdict = ("liveness contract held for every cell"
                   if self.live else "LIVENESS CONTRACT BROKEN")
        if not self.complete:
            verdict += f" (INCOMPLETE: {len(self.failures)} cells missing)"
        lines.append(verdict)
        lines.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(lines)


def run_cell(
    protocol: str,
    profile: ChaosProfile,
    seed: int = 0,
    n_flows: int = 4,
    size: int = 60_000,
    config: Optional[TransportConfig] = None,
) -> CellResult:
    """Run one protocol under one profile and judge the liveness contract.

    ``n_flows`` flows of ``size`` payload bytes start at staggered
    times on separate host pairs sharing the impaired bottleneck; the
    run's horizon is past every flow's give-up deadline, so a healthy
    cell leaves nothing pending.  Under an ambient ``AuditSession`` the
    cell's violations are that session's (the cell's own, in a sweep).
    """
    result = CellResult(protocol=protocol, profile=profile.name,
                        profile_seed=profile.seed, flows=n_flows)
    if config is None:
        config = sweep_config()
    horizon = (CELL_FLOW_SPACING * n_flows + config.max_flow_duration + 1.0)

    sim = Simulator(seed=derive_seed(
        seed, f"chaos-cell:{protocol}:{profile.spec}"))
    # The cell's profile is activated as the ambient chaos session
    # (displacing any outer --chaos profile for the build), so the
    # topology hook attaches the impairments exactly once.
    with _context.activated(profile):
        net = access_network(sim, n_pairs=n_flows)
    context = ProtocolContext()
    records = [
        launch_flow(sim, net, protocol, size, pair_index=i,
                    start_time=CELL_FLOW_SPACING * i,
                    config=config, context=context)
        for i in range(n_flows)
    ]
    try:
        sim.run(until=horizon)
    except StallError as exc:
        result.stalled = True
        result.stall_dump = list(exc.pending)
    # Logical event count (fired + absorbed by the batched link
    # datapath) — invariant under train batching, so the cell
    # fingerprint matches runs where tracing/auditing forces the
    # per-packet path.
    result.events = sim.events_run + sim.events_absorbed
    alive()
    fct_sum = 0.0
    for record in records:
        if record.completed:
            result.completed += 1
            fct_sum += record.fct
            result.fct_sketch.insert(record.fct)
        elif record.failed:
            result.failed += 1
            result.abort_reasons[record.abort_reason] = (
                result.abort_reasons.get(record.abort_reason, 0) + 1)
        else:
            result.pending += 1
    if result.completed:
        result.mean_fct = fct_sum / result.completed
    session = ambient.audit
    if session is not None:
        result.violations = [
            v.render() for v in session.auditor.finalize().violations]
    return result


def _run_cell_task(task) -> CellResult:
    """Picklable per-cell worker for :func:`fanout_map`:
    ``(protocol, profile, seed, n_flows, size)``."""
    return run_cell(*task)


def run_sweep(
    protocols: Optional[Sequence[str]] = None,
    profiles: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_flows: int = 4,
    size: int = 60_000,
    jobs: int = 1,
) -> SweepReport:
    """Run the full protocol x profile survival matrix.

    ``protocols`` / ``profiles`` default to everything registered; pass
    subsets for a quick (or CI-sized) sweep.  Cells are independent —
    each gets its own simulator, topology, and derived seed — so the
    matrix order never affects outcomes, and ``jobs > 1`` fans the
    cells out over worker processes.  Results merge in the serial cell
    order, so the report (and its fingerprint) is bit-identical to a
    ``jobs=1`` run.

    The fan-out runs under the ambient supervision policy and cell
    journal (:func:`repro.parallel.supervision` / ``journaling``, which
    ``chaos sweep`` declares through its run session): with quarantine
    on, poison cells become :attr:`SweepReport.failures` entries instead
    of aborting the sweep, and a journal makes the sweep resumable.  An
    ambient ``AuditSession`` audits every cell and marks the report
    :attr:`SweepReport.audited`.
    """
    if protocols is None:
        protocols = available_protocols()
    if profiles is None:
        profiles = available_profiles()
    resolved = [get_profile(name, seed=seed) if isinstance(name, str)
                else name for name in profiles]
    tasks = [
        (protocol, profile, seed, n_flows, size)
        for profile in resolved
        for protocol in protocols
    ]
    outcomes = fanout_map(_run_cell_task, tasks, jobs=jobs)
    cells: List[CellResult] = []
    failures: List[Dict[str, object]] = []
    for task, outcome in zip(tasks, outcomes):
        if isinstance(outcome, ShardFailure):
            failures.append({
                "protocol": task[0],
                "profile": task[1].spec,
                "kind": outcome.kind,
                "error": outcome.error,
            })
        else:
            cells.append(outcome)
    return SweepReport(cells=cells, seed=seed,
                       audited=ambient.audit is not None, failures=failures)
