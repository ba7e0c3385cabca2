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

Every flag composes with ``--jobs N``.  ``--telemetry`` and
``--chaos``: the parent and every pool worker enter the same
``WorkerEnv`` (per-worker trace files are shard-suffixed, the chaos
profile is re-parsed from its deterministic spec).  ``--audit``,
``--breakdown`` and ``--trace-viewer``: the fan-out observes each cell
in its own sessions and merges those into the run-level ones in cell
order, so the ``== audit ==`` and ``== breakdown ==`` sections and the
trace-viewer export are the same for any ``--jobs``.

The run lifecycle — ``--manifest`` / ``--no-manifest``,
``--heartbeat-timeout``, ``--procfault``, ``--resume``,
the schema-validated ``run_manifest.json`` and how each ending maps to
an exit code — is :class:`repro.obs.manifest.RunSession`, shared with
``chaos sweep``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, Optional, Tuple

__all__ = ["main", "EXPERIMENTS"]

#: Default export directory for a bare ``--telemetry``.
DEFAULT_TELEMETRY_DIR = "telemetry-out"

#: Default post-mortem bundle directory for a bare ``--audit``.
DEFAULT_AUDIT_DIR = "audit-out"

Formatter = Callable[[object], str]
Runner = Callable[..., Tuple[object, Formatter]]
Sized = Callable[[float], Dict[str, object]]


def _paths(scale: float) -> Dict[str, object]:
    return {"n_paths": int(260 * scale)}


def _duration(floor: float, full: float) -> Sized:
    return lambda scale: {"duration": max(floor, full * scale)}


def _experiment(description: str, module: str,
                sized: Optional[Sized] = None) -> Tuple[str, Runner]:
    """One registry row: ``(description, runner)``.

    ``runner(scale, seed, jobs=1)`` imports
    ``repro.experiments.<module>`` and calls its ``run`` with
    ``sized(scale)`` (the scale -> size/duration kwargs; none without
    ``sized``) plus each of ``seed`` / ``jobs`` that ``run`` has a
    parameter of that name for; it returns ``(result, format_report)``.
    """

    def runner(scale: float, seed: int, jobs: int = 1):
        m = importlib.import_module("repro.experiments." + module)
        code = m.run.__code__
        params = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        kwargs = sized(scale) if sized is not None else {}
        for name, value in (("seed", seed), ("jobs", jobs)):
            if name in params:
                kwargs[name] = value
        return m.run(**kwargs), m.format_report

    return description, runner


EXPERIMENTS: Dict[str, Tuple[str, Runner]] = {
    "fig1": _experiment(
        "latency vs feasible-capacity tradeoff scatter", "fig01_tradeoff",
        lambda scale: {"utilizations": tuple(round(0.1 * i, 2)
                                             for i in range(1, 10)),
                       "duration": max(5.0, 10 * scale)}),
    "fig2": _experiment("traffic carried by flow size (3 environments)",
                        "fig02_traffic_cdf"),
    "fig3": _experiment("10-segment Halfback walk-through", "fig03_example"),
    "table1": _experiment("startup/recovery design-space taxonomy",
                          "table1_taxonomy"),
    "fig5": _experiment("normal retransmissions, Internet paths",
                        "fig05_retransmissions", _paths),
    "fig6": _experiment("FCT CDF, Internet paths", "fig06_planetlab_fct",
                        _paths),
    "fig7": _experiment("FCT in RTTs, Internet paths", "fig07_rtt_counts",
                        _paths),
    "fig8": _experiment("FCT under loss, Internet paths", "fig08_loss_fct",
                        _paths),
    "fig9": _experiment("home access networks, Halfback vs TCP",
                        "fig09_homenets",
                        lambda scale: {"n_servers": max(4, int(40 * scale))}),
    "fig10": _experiment("bufferbloat: FCT and rtx vs buffer size",
                         "fig10_bufferbloat", _duration(20.0, 60)),
    "fig11": _experiment("FCT vs flow size, 3 distributions",
                         "fig11_flowsize", _duration(10.0, 30)),
    "fig12": _experiment("all-short-flow utilization sweep",
                         "fig12_utilization", _duration(5.0, 15)),
    "fig13": _experiment("short aggressive vs long TCP", "fig13_short_long",
                         _duration(20.0, 40)),
    "fig14": _experiment("TCP-friendliness scatter", "fig14_friendliness",
                         _duration(10.0, 30)),
    "fig15": _experiment("throughput impact on ongoing flow",
                         "fig15_throughput"),
    "fig16": _experiment("web response time vs utilization", "fig16_web",
                         _duration(15.0, 40)),
    "fig17": _experiment("ROPR design ablation sweep", "fig17_ablation",
                         _duration(5.0, 15)),
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
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
        # The schedule-perturbation harness.
        from repro.hb.cli import hb_main

        return hb_main(raw_argv[1:])

    from repro.obs.manifest import (RunSession, add_run_flags,
                                    positive_finite, positive_int)

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
                             "(schedule perturbation over tie-breaks); "
                             "for the subcommands the "
                             "remaining arguments are forwarded")
    parser.add_argument("--scale", type=positive_finite, default=1.0,
                        help="workload scale factor (1.0 = default laptop "
                             "scale; 10.0 approximates paper scale)")
    parser.add_argument("--seed", type=int, default=42,
                        help="master random seed")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker processes for sweep-cell fan-out "
                             "(figs 1, 5-8, 12, 16, 17; default 1 = serial; "
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
                             "print a closing '== breakdown ==' section: "
                             "per-protocol time-in-component tables, "
                             "'where Halfback wins' and a fingerprint, "
                             "bit-identical for any --jobs value")
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
                             "ui.perfetto.dev; the same events for any "
                             "--jobs value)")
    parser.add_argument("--chaos", default=None, metavar="PROFILE[:seed]",
                        help="run the experiments under a chaos profile "
                             "(see 'chaos list'): every access network "
                             "built gets the profile's impairments; "
                             "composes with --telemetry and --audit")
    add_run_flags(parser)
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
    config = {"experiments": names, "scale": args.scale, "seed": args.seed,
              "jobs": args.jobs, "chaos": args.chaos, "breakdown": breakdown}
    # Experiments never quarantine: a figure with holes is not a figure.
    # Reaping still applies to the --jobs fan-out: a failed cell ends
    # the run.
    with RunSession("experiments:" + args.experiment, args, config,
                    env={"telemetry_dir": args.telemetry,
                         "telemetry_format": args.telemetry_format,
                         "telemetry_kinds": args.telemetry_kinds,
                         "chaos_spec": args.chaos}) as run:
        if run.profile is not None:
            print(f"[chaos profile {run.profile.spec} active: "
                  f"{run.profile.description}]")
        audit = breakdown_session = None
        digest = hashlib.sha256()
        with contextlib.ExitStack() as planes:
            if args.audit is not None:
                from repro.audit import AuditSession

                # Entered after telemetry so the auditor composes with an
                # active hub (observing its trace stream) instead of
                # bringing its own.
                audit = planes.enter_context(AuditSession(out_dir=args.audit))
            if breakdown:
                from repro.obs.critical import BreakdownSession

                # Entered after telemetry/audit so the span builder
                # observes the already-composed trace stream; standalone
                # --breakdown brings its own ring-bounded recorder (same
                # as --audit).
                breakdown_session = planes.enter_context(BreakdownSession(
                    keep_spans=args.trace_viewer is not None))
            for name in names:
                description, runner = EXPERIMENTS[name]
                print(f"== {name}: {description} (scale={args.scale}) ==")
                started = time.time()
                with run.stage(name):
                    result, formatter = runner(args.scale, args.seed,
                                               args.jobs)
                    report = formatter(result)
                digest.update(report.encode("utf-8"))
                print(report)
                print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        if breakdown_session is not None:
            print("== breakdown ==")
            print(breakdown_session.aggregate.report())
            if args.trace_viewer is not None:
                from repro.obs.traceviewer import write_trace_viewer

                export = write_trace_viewer(args.trace_viewer,
                                            breakdown_session.completed,
                                            max_events=args.trace_viewer_max)
                truncated = (" — TRUNCATED at cap" if export.truncated else "")
                print(f"[trace viewer: {args.trace_viewer} "
                      f"({export.events} events{truncated}; "
                      f"open at ui.perfetto.dev)]")
                run.record_trace_viewer(args.trace_viewer, export)
        if run.hub is not None:
            # Close now (idempotent; the session's exit finds it closed):
            # the summary lists the metrics.json/profile.json close writes.
            run.hub.close()
            print("== telemetry ==")
            print(run.hub.summary(max_flows=args.timeline_flows))
            run.record_telemetry(_shard_telemetry(args.telemetry))
        if audit is not None:
            print("== audit ==")
            print(audit.report())
            if not audit.clean:
                run.status = 1
        run.record_result(digest.hexdigest(), experiments=names)
    return run.status


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
