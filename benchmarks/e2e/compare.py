"""``python -m benchmarks.e2e compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric), judged against the bound
``BENCHMARK.json`` fixes for that metric:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the bound, so the medians cannot be told
  apart at that resolution — unless every B sample beats every A sample;
* ``ok`` — otherwise.

Counts the program makes (events, packets, retransmissions, imported
modules) and result digests are listed when they differ: between two
runs of one commit, or across a pure performance change, none may.
"""

from __future__ import annotations

import json
from statistics import median
from typing import List

from . import spec
from .harness import quartiles, spread

__all__ = ["verdict", "compare", "render", "EXACT_METRICS"]

#: Per-layer metrics that are exact counts: they repeat bit for bit.
EXACT_METRICS = (
    "sim.events_fired", "sim.events_absorbed", "sim.events_logical",
    "sim.max_heap_depth", "net.packets_tx", "net.queue_drops",
    "net.loss_drops", "transport.timer_events",
    "transport.retransmissions_normal",
    "transport.retransmissions_proactive", "transport.timeouts",
    "transport.duplicate_receptions", "experiments.modules_imported",
    "audit.violations", "obs.breakdown_nonconserving",
    "parallel.fingerprint_match",
)


def verdict(a: List[float], b: List[float], bound: float,
            better: str = "lower") -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric's samples."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        b_beats_a = max(sign * x for x in b) < min(sign * x for x in a)
        return "ok" if b_beats_a else "unresolved"
    change = sign * (median(b) - median(a)) / median(a)
    return "worse" if change > bound else "ok"


def compare(a: dict, b: dict, benchmark: dict) -> dict:
    """Rows and exact-count differences between two result documents."""
    rows, differences = [], []
    for workload in spec.names(benchmark["workloads"]):
        runs = [doc["workloads"].get(workload) for doc in (a, b)]
        if None in runs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sa, sb = (run["end_to_end"]["samples"][name] for run in runs)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": median(sa), "a_quartiles": quartiles(sa),
                "b": median(sb), "b_quartiles": quartiles(sb),
                "ratio": median(sb) / median(sa), "bound": metric["bound"],
                "verdict": verdict(sa, sb, metric["bound"],
                                   metric["better"]),
            })
        da, db = (run["end_to_end"]["digest"] for run in runs)
        if da != db:
            differences.append(f"{workload} result_digest: {da} != {db}")
        la, lb = (run["per_layer"]["metrics"] for run in runs)
        for name in EXACT_METRICS:
            if la[name]["value"] != lb[name]["value"]:
                differences.append(f"{workload} {name}: "
                                   f"{la[name]['value']} != {lb[name]['value']}")
    return {"rows": rows, "differences": differences}


def render(result: dict) -> str:
    lines = [f"{'workload':<17s} {'metric':<12s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s}  verdict"]
    for row in result["rows"]:
        a = "{:.4f} [{:.4f}, {:.4f}]".format(row["a"], *row["a_quartiles"])
        b = "{:.4f} [{:.4f}, {:.4f}]".format(row["b"], *row["b_quartiles"])
        lines.append(
            f"{row['workload']:<17s} {row['metric']:<12s} {a:>34s} {b:>34s} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}")
    lines.append("B/A is B's median over A's median (base: A), per row's unit.")
    if result["differences"]:
        lines.append("exact counts / digests that differ:")
        lines.extend(f"  {line}" for line in result["differences"])
    else:
        lines.append("exact counts and result digests: identical")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        result = compare(json.load(handle_a), json.load(handle_b),
                         spec.load())
    print(render(result))
    return 1 if any(r["verdict"] == "worse" for r in result["rows"]) else 0
