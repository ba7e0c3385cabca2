"""Workload generation: flow sizes, arrival processes, web pages."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arrivals": (
        "FlowArrival", "PoissonArrivals", "generate_arrivals",
        "rate_for_utilization", "wire_bytes_for_payload",
    ),
    "distributions": (
        "BENSON", "ENVIRONMENTS", "INTERNET", "VL2", "environment",
        "fraction_of_traffic_below", "traffic_cdf", "truncated_environment",
    ),
    "sizes": (
        "EmpiricalSize", "FixedSize", "LogNormalSize", "SizeDistribution",
        "TruncatedSize", "UniformSize",
    ),
    "web": ("BrowserModel", "WebObject", "WebPage", "build_catalog"),
})
