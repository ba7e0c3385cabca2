"""One measured pass in a fresh process.

``python -m benchmarks.e2e.child --workload W --seed S --mode M`` prints
one JSON object as its last line.  Modes:

* ``run`` — set up (imports, inputs, warm-up), then the untraced timed
  section; nothing is installed anywhere in this process;
* ``trace`` — the same set-up, then the workload's traced pass; the
  coarse spans are written to ``out/trace-<workload>.json`` at the end;
* ``probes`` — the layer probes, the ``--jobs`` scaling probe and the
  fresh-import probe (no workload involved).

The runner times this whole process from outside; set-up time is that
wall minus the timed section reported here.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from . import probes, workloads
from .ledger import SpanLedger
from .spec import OUT_DIR
from .workloads import MB, WORKLOADS


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MB


def _set_up(name: str, seed: int):
    """Inputs from the seed, then one flow per protocol so lazy imports
    and first-call costs land in set-up, where ``setup_s`` shows them."""
    workload = WORKLOADS[name]
    started = time.perf_counter()
    inputs = workload.inputs(seed)
    input_gen_s = time.perf_counter() - started
    workloads.warm_up(seed)
    return workload, inputs, input_gen_s


def _run(name: str, seed: int) -> dict:
    if name == "cold_cli":
        OUT_DIR.mkdir(exist_ok=True)
        return workloads.run_cold_cli(seed, str(OUT_DIR))
    workload, inputs, _ = _set_up(name, seed)
    setup_rss = _peak_rss_mb()
    cpu_started = time.process_time()
    started = time.perf_counter()
    outcome = workload.run(inputs, seed)
    wall_s = time.perf_counter() - started
    outcome.update({
        "section_s": wall_s,
        "wall_s": wall_s,
        "cpu_s": time.process_time() - cpu_started,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_rss_mb": setup_rss,
    })
    return outcome


def _trace(name: str, seed: int) -> dict:
    workload, inputs, input_gen_s = _set_up(name, seed)
    ledger = SpanLedger()
    outcome = workload.trace(inputs, seed, ledger)
    if workload.input_metric:
        outcome["layers"][workload.input_metric] = input_gen_s
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{name}.json", "w") as handle:
        json.dump({
            "workload": name, "seed": seed,
            "phases": [{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in ledger.phases],
            "spans": {n: {"count": ledger.count[n],
                          "total_s": ledger.total[n],
                          "self_s": ledger.self_time[n]}
                      for n in sorted(ledger.total)},
        }, handle, indent=1)
    return outcome


def _probes(seed: int) -> dict:
    layers = probes.run_probes()
    layers.update(probes.parallel_probe(seed))
    layers.update(workloads.import_probe())
    return {"layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "probes"),
                        required=True)
    args = parser.parse_args(argv)
    if args.mode == "probes":
        result = _probes(args.seed)
    elif args.mode == "trace":
        result = _trace(args.workload, args.seed)
    else:
        result = _run(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
