"""Analytical models (the conclusion's "theoretical modeling" future
work): closed-form clean-path FCT for slow-start and pacing schemes."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "model": (
        "PathModel", "crossover_size", "paced_model_fct", "slow_start_rounds",
        "tcp_model_fct",
    ),
})
