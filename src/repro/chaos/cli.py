"""The ``chaos`` subcommand: ``python -m repro chaos <command>``.

``chaos list`` prints the profile catalogue; ``chaos sweep`` runs the
protocol x profile survival matrix and exits non-zero when the liveness
contract breaks (a stalled simulator, a flow neither DONE nor FAILED,
or — with ``--audit`` — any invariant violation).  The run lifecycle
(supervision, ``--resume`` journal, ``--procfault``, manifest, ending
table) is :class:`repro.obs.manifest.RunSession`, the same one the
figure targets use.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import List, Optional

__all__ = ["main"]


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    items = [item.strip() for item in value.split(",") if item.strip()]
    return items or None


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.obs.manifest import RunSession, add_run_flags, positive_int

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
    p_sweep.add_argument("--flows", type=positive_int, default=4,
                         help="flows per cell (default 4)")
    p_sweep.add_argument("--size", type=positive_int, default=60_000,
                         help="payload bytes per flow (default 60000)")
    p_sweep.add_argument("--seed", type=int, default=42,
                         help="master sweep seed")
    p_sweep.add_argument("--audit", action="store_true",
                         help="run the invariant auditor over every cell "
                              "(violations break the cell)")
    p_sweep.add_argument("--breakdown", action="store_true",
                         help="attribute every completed flow's FCT to "
                              "critical-path components and print the "
                              "time-in-component tables (also keyed into "
                              "--json output; the sweep fingerprint is "
                              "unchanged)")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full report (cells + "
                              "fingerprint) as JSON")
    p_sweep.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                         help="worker processes for the cell fan-out "
                              "(default 1 = serial; results and "
                              "fingerprint are identical either way)")
    p_sweep.add_argument("--quarantine", action="store_true",
                         help="degrade instead of dying: cells that "
                              "fail are reported as MISSING and the "
                              "sweep completes")
    add_run_flags(p_sweep)
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.chaos.profiles import _PROFILES, available_profiles

        for name in available_profiles():
            print(f"{name:18s} {_PROFILES[name].description}")
        return 0

    from repro.audit.session import AuditSession
    from repro.chaos.sweep import run_sweep
    from repro.obs.critical import BreakdownSession

    protocols, profiles = _split(args.protocols), _split(args.profiles)
    config = {"protocols": protocols, "profiles": profiles,
              "seed": args.seed, "flows": args.flows, "size": args.size,
              "audit": args.audit, "jobs": args.jobs,
              "breakdown": args.breakdown}
    with RunSession("chaos:sweep", args, config,
                    quarantine=args.quarantine) as run:
        audit = AuditSession() if args.audit else None
        attribution = BreakdownSession() if args.breakdown else None
        # Entered before the stage, which records what observes the run.
        with audit or nullcontext(), attribution or nullcontext(), \
                run.stage("sweep"):
            report = run_sweep(protocols=protocols, profiles=profiles,
                               seed=args.seed, n_flows=args.flows,
                               size=args.size, jobs=args.jobs)
        print(report.format_report())
        doc = report.to_dict()
        if attribution is not None:
            print("== breakdown ==")
            print(attribution.aggregate.report())
            if attribution.aggregate.flows:
                # Beside the cells, not in them: the sweep fingerprint
                # hashes cell outcomes only.
                doc["breakdown"] = attribution.aggregate.to_dict()
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
            print(f"json report: {args.json}")
        run.record_result(report.fingerprint, live=report.live)
        run.status = 0 if (report.live and report.complete) else 1
    return run.status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
