"""Run observatory: sketches, aggregation, progress, manifests.

What a run reports about itself beyond its figure (see the module
docstrings for detail):

* :mod:`~repro.obs.sketch` — mergeable DDSketch-style quantile sketches
  and exact count histograms with bit-identical serialization
  regardless of merge order: chaos sweep's per-cell FCT sketches,
  ``--breakdown``'s per-component sketches, Fig. 12's cell statistics;
* :mod:`~repro.obs.aggregate` — :class:`FlowStats`, folding flow
  records one at a time so Fig. 12's cells ship constant-size
  statistics instead of record lists, and
  :class:`StreamingFlowAggregator`, Fig. 12's per-protocol merge of
  them;
* :mod:`~repro.obs.progress` — the live multi-shard progress plane
  (heartbeats over each worker's pipe, refreshing status table,
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
