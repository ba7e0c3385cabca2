"""The eight schemes the paper evaluates, plus the §5 ablations."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "halfback": ("HalfbackPhase", "HalfbackSender"),
    "halfback_variants": ("HalfbackBurstSender", "HalfbackForwardSender"),
    "jumpstart": ("JumpStartSender",),
    "pcp": ("PcpSender",),
    "proactive": ("ProactiveTcpSender",),
    "reactive": ("ReactiveTcpSender",),
    "registry": (
        "ProtocolContext", "available_protocols", "create_sender",
        "register_protocol",
    ),
    "tcp": ("TcpSender",),
    "tcp10": ("Tcp10Sender",),
    "tcp_cache": ("CachedWindow", "TcpCacheSender", "WindowCache"),
})
