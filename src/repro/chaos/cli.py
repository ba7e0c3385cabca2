"""The ``chaos`` subcommand: ``python -m repro chaos <command>``.

``chaos list`` prints the profile catalogue; ``chaos sweep`` runs the
protocol x profile survival matrix and exits non-zero when the liveness
contract breaks (a stalled simulator, a flow neither DONE nor FAILED,
or — with ``--audit`` — any invariant violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main"]


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    items = [item.strip() for item in value.split(",") if item.strip()]
    return items or None


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="halfback-repro chaos",
        description="Deterministic network chaos: impairment profiles "
                    "and liveness-guaranteed protocol survival sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the chaos profile catalogue")

    p_sweep = sub.add_parser(
        "sweep", help="run the protocol x profile survival matrix")
    p_sweep.add_argument("--protocols", default=None, metavar="NAMES",
                         help="comma-separated protocol subset "
                              "(default: every registered protocol)")
    p_sweep.add_argument("--profiles", default=None, metavar="NAMES",
                         help="comma-separated profile subset "
                              "(default: every registered profile)")
    p_sweep.add_argument("--flows", type=int, default=4,
                         help="flows per cell (default 4)")
    p_sweep.add_argument("--size", type=int, default=60_000,
                         help="payload bytes per flow (default 60000)")
    p_sweep.add_argument("--seed", type=int, default=42,
                         help="master sweep seed")
    p_sweep.add_argument("--audit", action="store_true",
                         help="run the invariant auditor over every cell "
                              "(violations break the cell)")
    p_sweep.add_argument("--breakdown", action="store_true",
                         help="attribute every completed flow's FCT to "
                              "critical-path components and append the "
                              "time-in-component table (also keyed into "
                              "--json output; cell fingerprints are "
                              "unchanged)")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full report (cells + "
                              "fingerprint) as JSON")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the cell fan-out "
                              "(default 1 = serial; results and "
                              "fingerprint are identical either way)")
    p_sweep.add_argument("--progress", nargs="?", const="-", default=None,
                         metavar="DIR",
                         help="live per-cell progress plane (refreshing "
                              "status on stderr); with DIR also exports "
                              "progress.prom and progress.jsonl there")
    p_sweep.add_argument("--manifest", default="run_manifest.json",
                         metavar="PATH",
                         help="where to write the run manifest "
                              "(default: run_manifest.json)")
    p_sweep.add_argument("--no-manifest", action="store_true",
                         help="skip writing the run manifest")
    p_sweep.add_argument("--retries", type=int, default=1, metavar="N",
                         help="total attempts per cell before it counts "
                              "as lost (default 1 = no retry; backoff is "
                              "deterministic)")
    p_sweep.add_argument("--heartbeat-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="reap (SIGKILL) a cell's worker after this "
                              "many seconds of heartbeat silence and "
                              "retry it (default: never)")
    p_sweep.add_argument("--hedge-after", type=float, default=None,
                         metavar="SECONDS",
                         help="duplicate a straggler cell onto an idle "
                              "worker after this many seconds; first "
                              "finisher wins (results are bit-identical "
                              "either way)")
    p_sweep.add_argument("--quarantine", action="store_true",
                         help="degrade instead of dying: cells that "
                              "exhaust their retry budget are reported "
                              "as MISSING and the sweep completes")
    p_sweep.add_argument("--procfault", default=None, metavar="SPEC",
                         help="inject harness process faults, e.g. "
                              "'kill@1,hang@2/20,raise@3,kill%%10,seed=7' "
                              "(deterministic; exercises the supervisor)")
    p_sweep.add_argument("--resume", default=None, metavar="DIR",
                         help="journal completed cells to DIR/cells.jsonl "
                              "and replay any already recorded there — an "
                              "interrupted sweep picks up where it left "
                              "off, with an identical final fingerprint")
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.chaos.profiles import _PROFILES, available_profiles

        for name in available_profiles():
            print(f"{name:18s} {_PROFILES[name].description}")
        return 0

    import contextlib

    from repro.chaos.sweep import run_sweep
    from repro.parallel import (
        CellJournal,
        FanoutPolicy,
        WorkerEnv,
        fanout_stats,
        reset_fanout_stats,
    )

    manifest = None
    if not args.no_manifest:
        from repro.obs.manifest import RunManifest

        manifest = RunManifest("chaos:sweep", args=vars(args),
                               seed=args.seed)
        manifest.record_config({
            "protocols": _split(args.protocols),
            "profiles": _split(args.profiles),
            "seed": args.seed, "flows": args.flows, "size": args.size,
            "audit": args.audit, "jobs": args.jobs,
            "breakdown": args.breakdown,
        })

    policy = FanoutPolicy(
        max_attempts=max(1, args.retries),
        heartbeat_timeout=args.heartbeat_timeout,
        hedge_after=args.hedge_after,
        quarantine=args.quarantine,
    )
    journal = resume_lineage = None
    if args.resume is not None:
        journal = CellJournal(args.resume)
        # Lineage is the journal *being resumed*: digest it before this
        # run appends to it.
        resume_lineage = {"journal": journal.path,
                          "journal_digest": journal.file_digest()}

    from repro.sim.simulator import reset_tie_break_stats, tie_break_stats

    reset_tie_break_stats()
    reset_fanout_stats()
    stack = contextlib.ExitStack()
    if args.progress is not None:
        from repro.obs import progress as progress_mod

        stack.enter_context(progress_mod.plane(
            out_dir=None if args.progress == "-" else args.progress))
    if args.procfault is not None:
        # The parent enters the plan for serial (jobs=1) runs; pool
        # workers re-enter it from the same env.
        WorkerEnv(procfault_spec=args.procfault).enter(stack)
    if manifest is not None:
        from repro.telemetry.context import describe

        manifest.record_observers(describe())

    def finish(status: int, outcome: str = "ok",
               reason: Optional[str] = None,
               fingerprint: Optional[str] = None,
               live: Optional[bool] = None) -> int:
        if manifest is not None:
            ties = tie_break_stats()
            manifest.record_scheduler(ties["groups"], ties["max_group"])
            manifest.record_supervisor(fanout_stats(),
                                       resume=resume_lineage)
            if fingerprint is not None:
                manifest.set_result_fingerprint(fingerprint, live=live)
            manifest.set_outcome(outcome, reason)
            manifest.set_exit_status(status)
            path = manifest.write(args.manifest)
            print(f"run manifest: {path}")
        return status

    try:
        with stack:
            stage = (manifest.stage("sweep") if manifest is not None
                     else contextlib.nullcontext())
            with stage:
                report = run_sweep(
                    protocols=_split(args.protocols),
                    profiles=_split(args.profiles),
                    seed=args.seed,
                    n_flows=args.flows,
                    size=args.size,
                    audit=args.audit,
                    jobs=args.jobs,
                    breakdown=args.breakdown,
                    policy=policy,
                    journal=journal,
                )
    except KeyboardInterrupt:
        print("\ninterrupted — partial results "
              + (f"journaled to {journal.path}; re-run with --resume "
                 f"to continue" if journal is not None else "discarded "
                 "(use --resume DIR to make sweeps resumable)"),
              file=sys.stderr)
        return finish(130, outcome="interrupted",
                      reason="KeyboardInterrupt")
    except Exception as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return finish(1, outcome="error", reason=type(exc).__name__)
    print(report.format_report())
    ties = tie_break_stats()
    print(f"[scheduler tie-breaks: {ties['groups']} same-timestamp "
          f"group(s), max size {ties['max_group']}"
          + (" — in-process sims only" if args.jobs > 1 else "") + "]")
    stats = fanout_stats()
    if stats["retries"] or stats["reaped"] or stats["hedges"] \
            or stats["pool_respawns"] or stats["replayed"]:
        print(f"[supervisor: {stats['attempts']} attempts, "
              f"{stats['retries']} retries, {stats['reaped']} reaped, "
              f"{stats['hedges_won']}/{stats['hedges']} hedges won, "
              f"{stats['pool_respawns']} pool respawns, "
              f"{stats['replayed']} cells replayed from journal]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"json report: {args.json}")
    status = 0 if (report.live and report.complete) else 1
    return finish(status, fingerprint=report.fingerprint, live=report.live)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
