"""The performance observatory: ``python -m repro.bench``.

Simulator throughput is the gate on every scaling goal in the ROADMAP —
paper-scale PlanetLab sweeps, data-center workloads, millions of flows —
so this package makes speed a *tracked, regression-gated number* instead
of an anecdote.  Four parts:

* :mod:`~repro.bench.scenarios` — seeded macro-scenarios (the Fig. 3
  walk-through, a Fig. 6-style PlanetLab slice, a Fig. 12-style
  utilization sweep, a Fig. 16-style web-workload slice) measured for
  wall-clock, events/sec, packets/sec, simulated-time/real-time ratio
  and peak memory;
* :mod:`~repro.bench.micro` — microbenchmarks of the known hot paths
  (event queue, bottleneck queues + AQM, sender ACK processing, trace
  serialization) with warmup and min/median over repetitions;
* :mod:`~repro.bench.report` — the schema-versioned ``BENCH_<v>.json``
  document plus the ``--compare`` delta/regression-gate logic;
* :mod:`~repro.bench.cli` — the command line that ties it together and
  seeds the benchmark trajectory every perf PR is judged against.

Workloads are deterministic (fixed seeds): two runs on the same commit
report identical event/packet counts and differ only in timings, so a
``--compare`` delta is always a statement about *speed*, not about the
workload drifting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "machine": ("machine_metadata",),
    "micro": ("MICRO_BENCHMARKS", "run_micro_benchmarks"),
    "report": (
        "SCHEMA_VERSION", "bench_filename", "build_report", "compare_reports",
        "load_report", "render_comparison", "validate_report", "write_report",
    ),
    "scale": ("DEFAULT_SCALE", "QUICK_SCALE", "bench_scale"),
    "scenarios": (
        "MACRO_SCENARIOS", "run_macro_scenario", "run_macro_scenarios",
    ),
})
