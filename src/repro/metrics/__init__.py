"""Measurement and analysis helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "collapse": ("SweepPoint", "collapse_factor_curve", "feasible_capacity"),
    "fct": ("FctCollector",),
    "stats": (
        "SummaryStats", "ccdf_points", "cdf_points", "mean", "median",
        "percentile", "stddev", "summarize",
    ),
})
