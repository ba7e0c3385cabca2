"""``python -m repro hb`` — the happens-before observatory CLI.

Four subcommands over one record source (``--run NAME`` for an
in-process quick run of a named experiment with provenance recording
on, or ``--trace FILE`` for a recorded JSONL trace that was captured
with provenance on).  Either way the records are folded as they arrive
and none is kept: ``stats`` / ``export`` hold the graph, ``races`` one
tie group at a time.

* ``stats``   — node/edge/entity counts and tie-group exposure;
* ``races``   — enumerate same-timestamp same-entity pairs with no
  happens-before path (exit 1 when any exist);
* ``export``  — write the graph as Graphviz DOT and/or a Perfetto
  ``trace_event`` JSON;
* ``perturb`` — the schedule-perturbation harness: re-run a scenario
  with salted tie-break permutations and diff report fingerprints
  (exit 1 on any divergence).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["hb_main"]


def _stream(args, observe) -> None:
    """Push every record of the chosen source through ``observe``."""
    if args.trace is not None:
        from repro.audit.replay import iter_trace
        for record in iter_trace(args.trace):
            observe(record)
        return
    from repro.hb.perturb import run_scenario
    from repro.hb.session import provenance_stream
    with provenance_stream(observe):
        run_scenario(args.run, scale=args.scale, seed=args.seed)


def _races(args) -> int:
    """The ``races`` subcommand: one tie group in memory at a time."""
    from repro.hb.ties import TieGroupScanner
    from repro.telemetry.schema import EV_SCHED_EXEC
    scanner = TieGroupScanner()
    found = []
    entities = set()
    groups = events = 0

    def judge(group) -> None:
        nonlocal groups
        if group is not None:
            groups += 1
            found.extend(group.races())

    def observe(record) -> None:
        nonlocal events
        if record.kind == EV_SCHED_EXEC:
            events += 1
            entities.add(record.source)
        judge(scanner.observe(record))

    _stream(args, observe)
    judge(scanner.close())
    if not events:
        return _no_provenance()
    print(f"checked {groups} tie group(s) across "
          f"{events} events on {len(entities)} entities")
    if not found:
        print("no races: every same-timestamp same-entity pair is "
              "happens-before ordered")
        return 0
    print(f"{len(found)} race(s):")
    for race in found:
        print(f"  t={race['time']:.9f} entity={race['entity']}: "
              f"{race['first']} vs {race['second']}")
    return 1


def _no_provenance() -> int:
    print("error: no sched.exec events — was the trace recorded "
          "with provenance on?", file=sys.stderr)
    return 2


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--run", metavar="NAME",
        help="Run this experiment in-process (quick scale) with "
             "provenance recording on.")
    source.add_argument(
        "--trace", metavar="FILE",
        help="Build the graph from a recorded JSONL trace (must have "
             "been captured with provenance enabled).")
    parser.add_argument("--scale", type=float, default=None,
                        help="Scale factor for --run (default quick).")
    parser.add_argument("--seed", type=int, default=17,
                        help="Seed for --run (default 17).")


def hb_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro hb",
        description="Happens-before analysis over scheduler provenance.")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="Graph summary counts.")
    _add_source_args(stats)

    races = sub.add_parser(
        "races", help="Same-timestamp same-entity pairs with no HB path.")
    _add_source_args(races)

    export = sub.add_parser(
        "export", help="Write the graph as DOT and/or Perfetto JSON.")
    _add_source_args(export)
    export.add_argument("--dot", metavar="PATH",
                        help="Write Graphviz DOT here.")
    export.add_argument("--perfetto", metavar="PATH",
                        help="Write Perfetto trace_event JSON here.")
    export.add_argument("--max-nodes", type=int, default=None,
                        help="Cap exported nodes (default: 2000 for DOT, "
                             "500000 for Perfetto).")

    perturb = sub.add_parser(
        "perturb",
        help="Re-run a scenario with permuted tie-breaks and diff "
             "report fingerprints.")
    perturb.add_argument("scenario",
                         help="Experiment name (e.g. fig3, fig6).")
    perturb.add_argument("--salts", default="1,2,3",
                         help="Comma-separated permutation salts "
                              "(default 1,2,3).")
    perturb.add_argument("--scale", type=float, default=None,
                         help="Scale factor (default quick).")
    perturb.add_argument("--seed", type=int, default=17,
                         help="Scenario seed (default 17).")

    args = parser.parse_args(argv)

    from repro.hb.perturb import DEFAULT_SCALE
    if getattr(args, "scale", None) is None:
        args.scale = DEFAULT_SCALE

    if args.command == "perturb":
        from repro.hb.perturb import perturb as run_perturb
        try:
            salts = [int(s) for s in args.salts.split(",") if s.strip()]
        except ValueError:
            print(f"error: bad --salts {args.salts!r}", file=sys.stderr)
            return 2
        try:
            result = run_perturb(args.scenario, salts=salts,
                                 scale=args.scale, seed=args.seed)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(result.report())
        return 0 if result.identical else 1

    try:
        if args.command == "races":
            return _races(args)
        from repro.hb.graph import HBGraph
        graph = HBGraph()
        _stream(args, graph.observe)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if len(graph) == 0:
        return _no_provenance()

    if args.command == "stats":
        stats = graph.stats()
        print(f"nodes:         {stats['nodes']}")
        print(f"entities:      {stats['entities']}")
        print(f"roots:         {stats['roots']}")
        for kind, count in stats["edges"].items():
            print(f"edges[{kind}]:  {count}")
        print(f"tie groups:    {stats['tie_groups']} "
              f"(max size {stats['max_tie_group']})")
        return 0

    # export
    if not args.dot and not args.perfetto:
        print("error: export needs --dot and/or --perfetto",
              file=sys.stderr)
        return 2
    if args.dot:
        graph.write_dot(args.dot,
                        max_nodes=args.max_nodes or 2000)
        print(f"wrote DOT: {args.dot}")
    if args.perfetto:
        graph.write_perfetto(args.perfetto,
                             max_nodes=args.max_nodes or 500_000)
        print(f"wrote Perfetto: {args.perfetto}")
    return 0
