"""One run of one workload, in the form the benchmark driver calls:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when an output check
fails; a child that cannot run at all raises before any result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Run as a script, ``sys.path[0]`` is this directory; the package is
# importable from the checkout root.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    report = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(harness.render(report))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
