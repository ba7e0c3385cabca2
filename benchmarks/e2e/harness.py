"""The runner: fresh child processes one at a time, medians, checks.

Closed loop, one client: a child is started only after the previous one
has exited, and nothing here uses threads (the sandbox has two cores,
and a second busy process would show up in every timing).

``measure(workload, seed, seconds, trace)`` is one benchmark run:

* ``trace=False`` — untraced passes, each a fresh child, until their
  timed sections add up to ``seconds``; every end-to-end metric is the
  median over the passes.  ``setup_s`` is each child's whole wall, as
  timed here, minus its timed section — several set-ups per run.
* ``trace=True`` — one untraced pass (the base the tracing overhead is
  taken against), the workload's traced pass, and the probes child;
  reports every per-layer metric.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Dict, List, Tuple

from . import spec

__all__ = ["measure", "render", "machine_facts", "quartiles", "spread",
           "CHILD_TIMEOUT_S", "RESIDUAL_LIMIT"]

#: A child that takes this long is stuck (a pass is a few seconds).
CHILD_TIMEOUT_S = 150
#: A traced pass must attribute all but this share of its wall to a
#: named layer or phase.
RESIDUAL_LIMIT = 0.05


def machine_facts() -> Dict[str, object]:
    """What a reader needs before comparing two result files."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile (the value itself for a single sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def spread(values: List[float]) -> float:
    """Run-to-run spread: interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _child(mode: str, seed: int, workload: str = "") -> Tuple[dict, float]:
    """Run one child to completion; its result and its whole wall."""
    argv = [sys.executable, "-m", "benchmarks.e2e.child", "--mode", mode,
            "--seed", str(seed)]
    if workload:
        argv += ["--workload", workload]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=spec.REPO_ROOT, env=spec.child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(
            f"child {mode} {workload} exited {done.returncode}:\n"
            + done.stderr[-4000:])
    return json.loads(done.stdout.splitlines()[-1]), wall


def _untraced_pass(workload: str, seed: int) -> dict:
    result, wall = _child("run", seed, workload)
    # cold_cli reports its own set-up (a fresh import of the CLI).
    result.setdefault("setup_s", wall - result["section_s"])
    return result


def _consistency_problems(passes: List[dict]) -> List[str]:
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("result_digest differs between passes")
    if not all(p["consistent"] for p in passes):
        problems.append("a pass failed its internal equality checks")
    return problems


def _end_to_end(workload: str, seed: int, seconds: float,
                metric_units: Dict[str, str]) -> dict:
    passes: List[dict] = []
    while sum(p["section_s"] for p in passes) < seconds:
        passes.append(_untraced_pass(workload, seed))
    samples = {name: [p[name] for p in passes] for name in metric_units}
    return {
        "problems": _consistency_problems(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "digest": passes[0]["digest"],
        "passes": len(passes),
        "samples": samples,
        "metrics": {name: {"value": median(values),
                           "unit": metric_units[name]}
                    for name, values in samples.items()},
    }


def _per_layer(workload: str, seed: int,
               metric_units: Dict[str, str]) -> dict:
    base = _untraced_pass(workload, seed)
    passes = [base]
    layers: Dict[str, float] = {
        "mem.workload_rss_delta_mb":
            base["peak_rss_mb"] - base["setup_rss_mb"]}
    problems = []
    # cold_cli has no in-process traced pass: its layer numbers are the
    # import probe's, and the datapath ones read 0.
    if workload != "cold_cli":
        traced, _ = _child("trace", seed, workload)
        passes.append(traced)
        layers.update(traced["layers"])
        base_s = layers.get("trace_base_s", base["wall_s"])
        wall = layers["traced_wall_s"]
        layers["trace.overhead_share"] = (wall - base_s) / base_s
        layers["sim.events_per_s"] = layers["sim.events_logical"] / base_s
        if abs(layers["ledger_sum_s"] - wall) > 1e-6 * wall:
            problems.append("ledger self times do not sum to the traced wall")
        if layers["trace.conservation_residual_share"] > RESIDUAL_LIMIT:
            problems.append("traced pass leaves more than "
                            f"{RESIDUAL_LIMIT:.0%} of its wall unattributed")
    probes, _ = _child("probes", seed)
    layers.update(probes["layers"])
    if layers.get("audit.violations", 0):
        problems.append("audit violations on observed flows")
    if not layers["parallel.fingerprint_match"]:
        problems.append("jobs=2 fingerprint differs from jobs=1")
    return {
        "problems": problems + _consistency_problems(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "digest": base["digest"],
        "passes": len(passes),
        "metrics": {name: {"value": layers.get(name, 0.0), "unit": unit}
                    for name, unit in metric_units.items()},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload (see module docstring)."""
    benchmark = spec.load()
    if workload not in spec.names(benchmark["workloads"]):
        raise ValueError(f"unknown workload {workload!r}")
    section = benchmark["per_layer" if trace else "end_to_end"]
    metric_units = {entry["name"]: entry["unit"] for entry in section}
    report = (_per_layer(workload, seed, metric_units) if trace
              else _end_to_end(workload, seed, seconds, metric_units))
    report.update({"workload": workload, "seed": seed, "trace": trace,
                   "correct": not report["problems"],
                   "machine": machine_facts()})
    return report


def render(report: dict) -> str:
    """Human-readable lines for one run."""
    facts = report["machine"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"{'traced' if report['trace'] else 'untraced'}  "
        f"passes {report['passes']}  nproc {facts['nproc']}  "
        f"python {facts['python']}",
        f"result_digest {report['digest']}",
        f"attempted {report['attempted']}  failed {report['failed']}  "
        f"failed_share {report['failed'] / report['attempted']:.6f}",
    ]
    for name, metric in report["metrics"].items():
        line = f"  {name:<40s} {metric['value']:>16.6f} {metric['unit']}"
        samples = report.get("samples", {}).get(name)
        if samples:
            q1, q3 = quartiles(samples)
            line += f"   median of n={len(samples)}, q1 {q1:.6f} q3 {q3:.6f}"
        lines.append(line)
    lines.extend(f"CHECK FAILED: {problem}" for problem in report["problems"])
    return "\n".join(lines)
