"""Streaming run observatory: sketches, aggregation, progress, manifests.

The observability substrate the million-flow roadmap sits on::

    from repro import obs

    agg = obs.StreamingFlowAggregator()
    with obs.progress.plane(out_dir="out") as plane:   # live status table
        stats = run_sharded_sweep(...)                 # workers heartbeat
    print(agg.render())                                # p50/p90/p99/p99.9

Four parts (see the module docstrings for detail):

* :mod:`~repro.obs.sketch` — mergeable DDSketch-style quantile sketches
  and exact count histograms with bit-identical serialization
  regardless of merge order;
* :mod:`~repro.obs.aggregate` — :class:`StreamingFlowAggregator` /
  :class:`FlowStats`, folding flow records one at a time so sweeps keep
  no per-flow lists;
* :mod:`~repro.obs.progress` — the live multi-shard progress plane
  (heartbeats over a multiprocessing queue, refreshing status table,
  Prometheus-text + JSONL snapshot export);
* :mod:`~repro.obs.manifest` — schema-validated ``run_manifest.json``
  writers tracing every figure to exactly how it was produced.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregate": ("FlowStats", "REPORT_QUANTILES", "StreamingFlowAggregator"),
    "critical": (
        "BreakdownAggregator", "BreakdownSession", "BreakdownStats",
        "take_breakdown",
    ),
    "manifest": (
        "MANIFEST_SCHEMA", "MANIFEST_SCHEMA_ID", "RunManifest",
        "config_digest", "validate_manifest",
    ),
    "progress": ("ProgressPlane", "ShardReporter"),
    "sketch": (
        "CountHistogram", "DEFAULT_RELATIVE_ACCURACY", "QuantileSketch",
        "canonical_json",
    ),
    "spans": ("COMPONENTS", "FlowBreakdown", "FlowSpanBuilder"),
    "traceviewer": ("trace_viewer_doc", "write_trace_viewer"),
})
__all__.append("progress")  # the submodule itself is public surface
