"""Unified telemetry: metrics, flow timelines, profiling, trace export.

The observability layer for the whole stack::

    from repro import telemetry

    with telemetry.session(out_dir="out") as hub:
        result = some_experiment.run(...)     # simulators auto-attach
    print(hub.summary())

Four parts (see the module docstrings for detail):

* :mod:`~repro.telemetry.metrics` — counters / gauges / time-weighted
  histograms in a namespaced registry, near-zero cost when disabled;
* :mod:`~repro.telemetry.timeline` — per-flow event timelines with
  ASCII/JSON renderers;
* :mod:`~repro.telemetry.profiling` — wall-clock attribution per
  simulator callback, heap depth, events/sec;
* :mod:`~repro.telemetry.export` — streaming JSONL/CSV trace sinks with
  rotation and flushing.

:mod:`~repro.telemetry.schema` documents the trace-event contract the
emitters uphold, and :mod:`~repro.telemetry.hub` bundles everything
behind one :class:`Telemetry` session object.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "context": ("activated", "current_hub"),
    "export": ("CsvTraceSink", "JsonlTraceSink", "TraceSink"),
    "hub": ("Telemetry", "parse_kinds", "session"),
    "metrics": (
        "Counter", "Gauge", "MetricsRegistry", "NULL_METRIC", "NullMetric",
        "TimeWeightedHistogram",
    ),
    "profiling": ("CallbackStats", "SimProfiler"),
    "schema": (
        "EVENT_SCHEMA", "FLOW_EVENT_KINDS", "missing_keys", "required_keys",
        "validate_records",
    ),
    "timeline": (
        "FlowTimeline", "TimelineEvent", "build_timelines", "render_timeline",
        "render_timelines", "timeline_to_json",
    ),
})
