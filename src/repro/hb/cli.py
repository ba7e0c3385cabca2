"""``python -m repro hb perturb`` — the schedule-perturbation harness.

Re-runs a scenario with salted tie-break permutations and diffs report
fingerprints (exit 1 on any divergence).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.manifest import positive_finite

__all__ = ["hb_main"]


def hb_main(argv: Optional[List[str]] = None) -> int:
    from repro.hb.perturb import DEFAULT_SCALE, perturb as run_perturb

    parser = argparse.ArgumentParser(
        prog="repro hb",
        description="Schedule perturbation over scheduler tie-breaks.")
    sub = parser.add_subparsers(dest="command", required=True)
    perturb = sub.add_parser(
        "perturb",
        help="Re-run a scenario with permuted tie-breaks and diff "
             "report fingerprints.")
    perturb.add_argument("scenario",
                         help="Experiment name (e.g. fig3, fig6).")
    perturb.add_argument("--salts", default="1,2,3",
                         help="Comma-separated permutation salts "
                              "(default 1,2,3).")
    perturb.add_argument("--scale", type=positive_finite,
                         default=DEFAULT_SCALE,
                         help="Scale factor (default quick).")
    perturb.add_argument("--seed", type=int, default=17,
                         help="Scenario seed (default 17).")

    args = parser.parse_args(argv)
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
