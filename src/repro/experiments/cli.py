"""Command-line entry point: ``python -m repro <experiment>``.

Runs one experiment at a chosen scale and prints the paper-style
report.  ``halfback-repro list`` enumerates everything available.

``--telemetry [DIR]`` activates the unified telemetry subsystem for the
run: every simulator the experiment builds streams its trace to
``DIR/trace.jsonl``, aggregates metrics, and is profiled; a summary
report (metrics snapshot, per-flow timelines, simulator profile, export
paths) is printed after the experiments finish.

``--audit [DIR]`` runs the protocol invariant auditor (see
:mod:`repro.audit`) over the same runs: every packet gets a lineage
span, the paper's invariants are checked live, and the first violation
(or crash) dumps a post-mortem bundle into ``DIR``.  Both flags
compose — with ``--telemetry`` the auditor observes the telemetry hub's
trace stream.

``--telemetry`` and ``--chaos`` compose with ``--jobs N``: the parent
and every pool worker enter the same ``WorkerEnv`` (per-worker trace
files are shard-suffixed, the chaos profile is re-parsed from its
deterministic spec).  ``--audit`` and ``--trace-viewer`` keep the run
in-process — their sessions live in the parent only; the rule is
:data:`IN_PROCESS_RULES`.

``--progress [DIR]`` turns on the live progress plane (refreshing
status line on stderr; with DIR also ``progress.prom`` + snapshot
JSONL), and every run writes a schema-validated ``run_manifest.json``
(``--manifest PATH`` to move it, ``--no-manifest`` to skip).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import sys
import time
from typing import Callable, Dict, Tuple

__all__ = ["main", "EXPERIMENTS"]

#: Default export directory for a bare ``--telemetry``.
DEFAULT_TELEMETRY_DIR = "telemetry-out"

#: Default post-mortem bundle directory for a bare ``--audit``.
DEFAULT_AUDIT_DIR = "audit-out"

#: Flags whose session lives in the parent process only — the auditor's
#: flight recorder, the span store a trace-viewer export reads.  Given
#: with ``--jobs N`` (N > 1), the run stays in-process and says so once
#: on stderr: ``(argparse dest, notice)``.
IN_PROCESS_RULES = (
    ("audit", "[--jobs ignored: --audit needs an in-process run]"),
    ("trace_viewer", "[--jobs ignored: --trace-viewer exports spans "
                     "retained by an in-process run]"),
)

Runner = Callable[..., object]
Formatter = Callable[[object], str]


def _fig01(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig01_tradeoff as m
    utils = tuple(round(0.1 * i, 2) for i in range(1, 10))
    return m.run(utilizations=utils, duration=max(5.0, 10 * scale), seed=seed), m.format_report


def _fig02(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig02_traffic_cdf as m
    return m.run(), m.format_report


def _fig03(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig03_example as m
    return m.run(seed=seed), m.format_report


def _table1(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import table1_taxonomy as m
    return m.run(), m.format_report


def _fig05(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig05_retransmissions as m
    return m.run(n_paths=int(260 * scale), seed=seed, jobs=jobs), m.format_report


def _fig06(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig06_planetlab_fct as m
    return m.run(n_paths=int(260 * scale), seed=seed, jobs=jobs,
                 breakdown=breakdown), m.format_report


def _fig07(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig07_rtt_counts as m
    return m.run(n_paths=int(260 * scale), seed=seed, jobs=jobs), m.format_report


def _fig08(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig08_loss_fct as m
    return m.run(n_paths=int(260 * scale), seed=seed, jobs=jobs), m.format_report


def _fig09(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig09_homenets as m
    return m.run(n_servers=max(4, int(40 * scale)), seed=seed), m.format_report


def _fig10(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig10_bufferbloat as m
    return m.run(duration=max(20.0, 60 * scale), seed=seed), m.format_report


def _fig11(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig11_flowsize as m
    return m.run(duration=max(10.0, 30 * scale), seed=seed), m.format_report


def _fig12(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig12_utilization as m
    return m.run(duration=max(5.0, 15 * scale), seed=seed, jobs=jobs,
                 breakdown=breakdown), m.format_report


def _fig13(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig13_short_long as m
    return m.run(duration=max(20.0, 40 * scale), seed=seed), m.format_report


def _fig14(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig14_friendliness as m
    return m.run(duration=max(10.0, 30 * scale), seed=seed), m.format_report


def _fig15(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig15_throughput as m
    return m.run(seed=seed), m.format_report


def _fig16(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig16_web as m
    return m.run(duration=max(15.0, 40 * scale), seed=seed, jobs=jobs), m.format_report


def _fig17(scale: float, seed: int, jobs: int = 1, breakdown: bool = False):
    from repro.experiments import fig17_ablation as m
    return m.run(duration=max(5.0, 15 * scale), seed=seed), m.format_report


EXPERIMENTS: Dict[str, Tuple[str, Callable[[float, int], Tuple[object, Formatter]]]] = {
    "fig1": ("latency vs feasible-capacity tradeoff scatter", _fig01),
    "fig2": ("traffic carried by flow size (3 environments)", _fig02),
    "fig3": ("10-segment Halfback walk-through", _fig03),
    "table1": ("startup/recovery design-space taxonomy", _table1),
    "fig5": ("normal retransmissions, Internet paths", _fig05),
    "fig6": ("FCT CDF, Internet paths", _fig06),
    "fig7": ("FCT in RTTs, Internet paths", _fig07),
    "fig8": ("FCT under loss, Internet paths", _fig08),
    "fig9": ("home access networks, Halfback vs TCP", _fig09),
    "fig10": ("bufferbloat: FCT and rtx vs buffer size", _fig10),
    "fig11": ("FCT vs flow size, 3 distributions", _fig11),
    "fig12": ("all-short-flow utilization sweep", _fig12),
    "fig13": ("short aggressive vs long TCP", _fig13),
    "fig14": ("TCP-friendliness scatter", _fig14),
    "fig15": ("throughput impact on ongoing flow", _fig15),
    "fig16": ("web response time vs utilization", _fig16),
    "fig17": ("ROPR design ablation sweep", _fig17),
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="halfback-repro",
        description="Regenerate tables/figures from the Halfback paper "
                    "(CoNEXT 2015) on the bundled simulator.",
    )
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig12), 'list' / 'all', "
                             "'audit' (offline trace auditing), 'chaos' "
                             "(impairment profiles and survival sweeps), "
                             "'explain' "
                             "(per-flow FCT attribution from a trace) or "
                             "'manifest' (run-manifest validation) or 'hb' "
                             "(happens-before analysis over scheduler "
                             "provenance); for the subcommands the "
                             "remaining arguments are forwarded")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = default laptop "
                             "scale; 10.0 approximates paper scale)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master random seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep-cell fan-out "
                             "(figs 5-8, 12, 16; default 1 = serial; "
                             "results are identical either way)")
    parser.add_argument("--telemetry", nargs="?", const=DEFAULT_TELEMETRY_DIR,
                        default=None, metavar="DIR",
                        help="enable the telemetry subsystem; streams a "
                             "JSONL trace, metrics.json and profile.json "
                             f"into DIR (default: {DEFAULT_TELEMETRY_DIR}) "
                             "and prints a summary report")
    parser.add_argument("--telemetry-format", choices=["jsonl", "csv"],
                        default="jsonl",
                        help="streaming trace format (with --telemetry)")
    parser.add_argument("--telemetry-kinds", default=None, metavar="PREFIXES",
                        help="comma-separated trace-kind prefixes to keep, "
                             "e.g. 'flow,halfback,sender' (with --telemetry)")
    parser.add_argument("--timeline-flows", type=int, default=4,
                        help="per-flow timelines to print in the telemetry "
                             "summary")
    parser.add_argument("--audit", nargs="?", const=DEFAULT_AUDIT_DIR,
                        default=None, metavar="DIR",
                        help="run the protocol invariant auditor alongside "
                             "the experiments; on the first violation (or "
                             "crash) a post-mortem bundle is written to DIR "
                             f"(default: {DEFAULT_AUDIT_DIR}) and the exit "
                             "status is 1")
    parser.add_argument("--breakdown", action="store_true",
                        help="attribute every completed flow's FCT to "
                             "critical-path components (serialization, "
                             "queue wait, propagation, pacing, loss "
                             "detection, retransmission, RTO idle) and "
                             "print per-protocol time-in-component tables; "
                             "fig6/fig12 reports gain breakdown + 'where "
                             "Halfback wins' tables that are bit-identical "
                             "for any --jobs value")
    parser.add_argument("--trace-viewer-max", type=int, default=500_000,
                        metavar="N",
                        help="event cap for the --trace-viewer export "
                             "(default 500000); the export notes "
                             "truncation and the run manifest records "
                             "the cap and whether it was hit")
    parser.add_argument("--trace-viewer", default=None, metavar="PATH",
                        help="export retained flow/packet/recovery span "
                             "timelines as Perfetto/Chrome trace_event "
                             "JSON to PATH (implies --breakdown; open at "
                             "ui.perfetto.dev; spans are retained from "
                             "the in-process run, so --jobs is ignored)")
    parser.add_argument("--chaos", default=None, metavar="PROFILE[:seed]",
                        help="run the experiments under a chaos profile "
                             "(see 'chaos list'): every access network "
                             "built gets the profile's impairments; "
                             "composes with --telemetry and --audit")
    parser.add_argument("--progress", nargs="?", const="-", default=None,
                        metavar="DIR",
                        help="live multi-shard progress plane (refreshing "
                             "status on stderr); with DIR also exports "
                             "progress.prom (Prometheus text) and "
                             "progress.jsonl snapshots there")
    parser.add_argument("--manifest", default="run_manifest.json",
                        metavar="PATH",
                        help="where to write the run manifest "
                             "(default: run_manifest.json)")
    parser.add_argument("--no-manifest", action="store_true",
                        help="skip writing the run manifest")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="total attempts per sweep cell before the "
                             "run fails (default 1 = no retry; applies "
                             "to the --jobs fan-out, with deterministic "
                             "backoff)")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="reap (SIGKILL) a fan-out worker after this "
                             "many seconds of heartbeat silence and retry "
                             "its cell (default: never)")
    parser.add_argument("--procfault", default=None, metavar="SPEC",
                        help="inject harness process faults into the "
                             "fan-out, e.g. 'kill@1,raise@3,seed=7' "
                             "(deterministic; for exercising the shard "
                             "supervisor)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="journal completed sweep cells to "
                             "DIR/cells.jsonl and replay any already "
                             "recorded there; an interrupted run resumes "
                             "with an identical final report")
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "audit":
        # Offline trace replay through the invariant auditor.
        from repro.audit.cli import main as audit_main

        return audit_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "chaos":
        # Impairment profiles and protocol survival sweeps.
        from repro.chaos.cli import main as chaos_main

        return chaos_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "manifest":
        # Run-manifest utilities (schema validation).
        from repro.obs.cli import manifest_main

        return manifest_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "explain":
        # Post-mortem FCT attribution from a recorded trace.
        from repro.obs.cli import explain_main

        return explain_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "hb":
        # Happens-before graph, race check, and perturbation harness.
        from repro.hb.cli import hb_main

        return hb_main(raw_argv[1:])

    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (description, __) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
            return 2

    breakdown = args.breakdown or args.trace_viewer is not None
    jobs = args.jobs
    if jobs > 1:
        for dest, notice in IN_PROCESS_RULES:
            if getattr(args, dest) is not None:
                print(notice, file=sys.stderr)
                jobs = 1

    manifest = None
    if not args.no_manifest:
        from repro.obs.manifest import RunManifest

        manifest = RunManifest("experiments:" + args.experiment,
                               args=vars(args), seed=args.seed)
        manifest.record_config({
            "experiments": names, "scale": args.scale, "seed": args.seed,
            "jobs": jobs, "chaos": args.chaos, "breakdown": breakdown,
        })

    hub = audit = None
    stack = contextlib.ExitStack()
    if (args.telemetry is not None or args.chaos is not None
            or args.procfault is not None):
        from repro.parallel import WorkerEnv

        # The sessions the parent enters here are the ones every pool
        # worker re-enters from the same env (shard-suffixed there).
        hub, profile = WorkerEnv(
            telemetry_dir=args.telemetry,
            telemetry_format=args.telemetry_format,
            telemetry_kinds=args.telemetry_kinds,
            chaos_spec=args.chaos,
            procfault_spec=args.procfault).enter(stack)
        if profile is not None:
            print(f"[chaos profile {profile.spec} active: "
                  f"{profile.description}]")
    if args.audit is not None:
        from repro.audit import AuditSession

        # Entered after telemetry so the auditor composes with an active
        # hub (observing its trace stream) instead of bringing its own.
        audit = stack.enter_context(AuditSession(out_dir=args.audit))
    breakdown_session = None
    if breakdown:
        from repro.obs.critical import BreakdownSession

        # Entered after telemetry/audit so the span builder observes the
        # already-composed trace stream; standalone --breakdown brings
        # its own ring-bounded recorder (same as --audit).
        breakdown_session = stack.enter_context(BreakdownSession(
            keep_spans=args.trace_viewer is not None))
    if args.progress is not None:
        from repro.obs import progress as progress_mod

        stack.enter_context(progress_mod.plane(
            out_dir=None if args.progress == "-" else args.progress))

    from repro.errors import StallError
    from repro.parallel import (
        FanoutPolicy,
        fanout_stats,
        reset_fanout_stats,
        supervision,
    )

    # Experiments never quarantine: a figure with holes is not a figure.
    # Retries and reaping still apply to the --jobs fan-out.
    stack.enter_context(supervision(FanoutPolicy(
        max_attempts=max(1, args.retries),
        heartbeat_timeout=args.heartbeat_timeout,
    )))
    resume_lineage = None
    if args.resume is not None:
        from repro.parallel import CellJournal, journaling

        journal = CellJournal(args.resume)
        resume_lineage = {"journal": journal.path,
                          "journal_digest": journal.file_digest()}
        stack.enter_context(journaling(journal))

    if manifest is not None:
        from repro.telemetry.context import describe

        manifest.record_observers(describe())

    from repro.sim.simulator import reset_tie_break_stats, tie_break_stats

    # Count tie-break exposure from a clean slate for this invocation.
    reset_tie_break_stats()
    reset_fanout_stats()

    def write_interrupted(reason: str, status: int) -> int:
        if manifest is not None:
            ties = tie_break_stats()
            manifest.record_scheduler(ties["groups"], ties["max_group"])
            manifest.record_supervisor(fanout_stats(),
                                       resume=resume_lineage)
            manifest.set_outcome("interrupted", reason)
            manifest.set_exit_status(status)
            path = manifest.write(args.manifest)
            print(f"[run manifest: {path} (interrupted)]", file=sys.stderr)
        return status

    digest = hashlib.sha256()
    try:
        with stack:
            for name in names:
                description, runner = EXPERIMENTS[name]
                print(f"== {name}: {description} (scale={args.scale}) ==")
                started = time.time()
                stage = (manifest.stage(name) if manifest is not None
                         else contextlib.nullcontext())
                with stage:
                    result, formatter = runner(args.scale, args.seed, jobs,
                                               breakdown)
                    report = formatter(result)
                digest.update(report.encode("utf-8"))
                print(report)
                print(f"[{name} finished in {time.time() - started:.1f}s]\n")
    except KeyboardInterrupt:
        print("\ninterrupted"
              + (f" — completed cells journaled under {args.resume}; "
                 f"re-run with --resume to continue"
                 if args.resume is not None else ""), file=sys.stderr)
        return write_interrupted("KeyboardInterrupt", 130)
    except StallError as exc:
        print(f"simulation stalled: {exc}", file=sys.stderr)
        return write_interrupted("StallError", 1)
    if breakdown_session is not None:
        print("== breakdown ==")
        agg = breakdown_session.aggregate
        if agg.flows:
            print(agg.render(title="FCT attribution (time in component)"))
            wins = agg.render_halfback_vs_tcp()
            if wins is not None:
                print(wins)
        else:
            print("no flows observed by the run-level session"
                  + (" (per-trial breakdowns ran in --jobs workers; see "
                     "the figure reports above)" if jobs > 1 else ""))
        if args.trace_viewer is not None:
            from repro.obs.traceviewer import write_trace_viewer

            export = write_trace_viewer(args.trace_viewer,
                                        breakdown_session.completed,
                                        max_events=args.trace_viewer_max)
            truncated = (" — TRUNCATED at cap" if export.truncated else "")
            print(f"[trace viewer: {args.trace_viewer} "
                  f"({export.events} events{truncated}; "
                  f"open at ui.perfetto.dev)]")
            if manifest is not None:
                manifest.record_trace_viewer(
                    args.trace_viewer, export.events, export.truncated,
                    export.max_events)
    if hub is not None:
        # The session is closed (exports flushed, metrics.json/profile.json
        # written), but the in-memory views remain readable.
        print("== telemetry ==")
        print(hub.summary(max_flows=args.timeline_flows))
    ties = tie_break_stats()
    print(f"[scheduler tie-breaks: {ties['groups']} same-timestamp "
          f"group(s), max size {ties['max_group']}"
          + (" — in-process sims only" if jobs > 1 else "") + "]")
    status = 0
    if audit is not None:
        print("== audit ==")
        print(audit.report())
        if not audit.clean:
            status = 1
    stats = fanout_stats()
    if stats["retries"] or stats["reaped"] or stats["pool_respawns"] \
            or stats["replayed"]:
        print(f"[supervisor: {stats['attempts']} attempts, "
              f"{stats['retries']} retries, {stats['reaped']} reaped, "
              f"{stats['pool_respawns']} pool respawns, "
              f"{stats['replayed']} cells replayed from journal]")
    if manifest is not None:
        manifest.record_scheduler(ties["groups"], ties["max_group"])
        manifest.record_supervisor(stats, resume=resume_lineage)
        if hub is not None:
            manifest.record_telemetry(
                hub.dropped_records,
                shards=_shard_telemetry(args.telemetry))
        manifest.set_result_fingerprint(digest.hexdigest(),
                                        experiments=names)
        manifest.set_exit_status(status)
        path = manifest.write(args.manifest)
        print(f"[run manifest: {path}]")
    return status


def _shard_telemetry(out_dir):
    """Per-shard drop counters from worker ``metrics-shard*.json`` files
    (empty when the run was serial)."""
    shards = []
    if out_dir is None:
        return shards
    for path in sorted(glob.glob(os.path.join(out_dir,
                                              "metrics-shard*.json"))):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):  # pragma: no cover - torn write
            continue
        shards.append({
            "shard": int(doc.get("shard", -1)),
            "dropped_records": int(doc.get("trace_dropped_records", 0)),
        })
    return shards


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
