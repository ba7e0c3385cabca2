"""The paper's primary contribution: Halfback's mechanisms.

These modules are pure policy — the Pacing-phase planner, the ROPR
state machine, and the fallback bandwidth estimator — wired into the
transport framework by :mod:`repro.protocols.halfback`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bandwidth": ("AckRateEstimator",),
    "config": (
        "HalfbackConfig", "RATE_ACK_CLOCK", "RATE_LINE", "ROPR_FORWARD",
        "ROPR_REVERSE",
    ),
    "pacing_phase": ("PacingPlan", "plan_pacing"),
    "ropr": ("RoprScheduler",),
    "threshold": ("ThroughputCache", "ThroughputObservation"),
})
