"""The whole benchmark in one command.

    PYTHONPATH=src python -m benchmarks.e2e --seed 42
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json

Runs every workload of ``BENCHMARK.json`` twice — untraced for the
end-to-end metrics, then traced for the per-layer ones — prints every
metric by name with its unit, checks the outputs and writes one JSON
result (the input of ``compare``).  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compare, harness, spec


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)
    benchmark = spec.load()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", default=None,
                        help="result file (default: out/result-seed<N>.json)")
    args = parser.parse_args(argv)
    document = {"schema": "benchmarks.e2e/1", "seed": args.seed,
                "seconds": args.seconds,
                "machine": harness.machine_facts(), "workloads": {}}
    correct = True
    for workload in spec.names(benchmark["workloads"]):
        runs = {}
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            report = harness.measure(workload, args.seed, args.seconds, trace)
            print(harness.render(report), flush=True)
            correct = correct and report["correct"]
            runs[section] = report
        document["workloads"][workload] = runs
    if args.out is None:
        spec.OUT_DIR.mkdir(exist_ok=True)
        args.out = str(spec.OUT_DIR / f"result-seed{args.seed}.json")
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"result written to {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
