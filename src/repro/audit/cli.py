"""``python -m repro audit`` — offline trace auditing.

Replays a recorded trace (``--telemetry --trace-file trace.jsonl``, or
a flight-recorder ``ring.jsonl``) through the full invariant-checker
pipeline and prints the audit report.  Exit status 1 when any invariant
was violated, so the command slots into CI pipelines directly; bad
input (a non-positive count, an unreadable trace) is a usage error,
exit status 2, never mistaken for a failed audit.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.audit.replay import replay
from repro.obs.manifest import positive_int

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="Replay a trace JSONL file through the protocol "
                    "invariant auditor.",
    )
    parser.add_argument(
        "--replay", required=True, metavar="TRACE",
        help="trace file to audit (JSONL, as written by --trace-file "
             "or a flight-recorder ring.jsonl)",
    )
    parser.add_argument(
        "--out", default="audit-out", metavar="DIR",
        help="post-mortem bundle directory (default: %(default)s; "
             "written only when a violation is found)",
    )
    parser.add_argument(
        "--ring", type=positive_int, default=4000, metavar="N",
        help="flight-recorder ring size (default: %(default)s)",
    )
    parser.add_argument(
        "--max-spans", type=positive_int, default=200_000, metavar="N",
        help="lineage span retention bound (default: %(default)s)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.replay, "rb"):
            pass
    except OSError as exc:
        parser.error(f"cannot read --replay {args.replay}: {exc.strerror}")
    auditor = replay(args.replay, out_dir=args.out,
                     ring_size=args.ring, max_spans=args.max_spans)
    print(auditor.report())
    return 1 if auditor.violations else 0


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
