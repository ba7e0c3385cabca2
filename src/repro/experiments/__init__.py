"""Experiment harness: one module per table/figure of the paper.

See DESIGN.md's per-experiment index.  Every module follows the same
shape: ``run(...)`` returns a typed result, ``format_report(result)``
renders the rows/series the paper reports.  ``python -m repro
<experiment>`` (or the ``halfback-repro`` script) drives them from the
command line.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "runner": ("ScheduledFlow", "TrafficRunner", "launch_flow"),
    "scenarios": (
        "EMULAB", "LONG_FLOW_BYTES", "PROTOCOLS_ALL", "PROTOCOLS_MAIN",
        "SHORT_FLOW_BYTES", "build_emulab", "mixed_schedule",
        "run_single_path_flow", "run_utilization_point_stats",
        "run_workload", "short_flow_schedule",
    ),
})
