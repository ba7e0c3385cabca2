"""Packet network substrate (substrate 2): packets, links, queues,
nodes, topologies and monitors."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aqm": ("CoDelQueue",),
    "link": ("Link", "LinkStats"),
    "monitor": (
        "FlowThroughputMonitor", "LinkUtilizationMonitor", "PeriodicMonitor",
        "QueueDepthMonitor", "UtilizationSample",
    ),
    "node": ("Host", "Node", "Router"),
    "packet": ("Packet", "PacketType"),
    "queue": ("DropTailQueue", "QueueStats", "REDQueue"),
    "topology": ("AccessNetwork", "Topology", "access_network", "dumbbell"),
})
