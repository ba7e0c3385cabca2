"""Transport framework (substrate 3): the reliable-transport machinery
all eight schemes are built on."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("TransportConfig",),
    "flow": ("FlowRecord", "FlowSpec", "next_flow_id", "segments_for"),
    "pacing": ("Pacer", "pacing_rate_for"),
    "receiver": ("Receiver", "ReceiverState"),
    "rtt": ("RttEstimator",),
    "sacks": (
        "IntervalSet", "ReceiveTracker", "SegmentState", "SendScoreboard",
    ),
    "sender": ("SenderBase", "SenderState"),
})
