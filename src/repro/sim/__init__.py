"""Discrete-event simulation engine (substrate 1).

Public surface::

    from repro.sim import Simulator, Timer, TraceRecorder

"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "event": ("Event", "EventHandle"),
    "randomness": ("RandomStreams", "derive_seed"),
    "scheduler": ("EventScheduler",),
    "simulator": ("Simulator", "Timer"),
    "trace": ("TraceRecord", "TraceRecorder"),
})
