"""repro — a reproduction of *Halfback: Running Short Flows Quickly and
Safely* (Li, Dong, Godfrey; CoNEXT 2015).

The package bundles a from-scratch discrete-event packet simulator
(:mod:`repro.sim`, :mod:`repro.net`), a reliable-transport framework
(:mod:`repro.transport`), the Halfback mechanisms (:mod:`repro.core`),
all eight schemes the paper evaluates (:mod:`repro.protocols`), the
paper's workloads (:mod:`repro.workloads`, :mod:`repro.planetlab`) and
an experiment harness regenerating every table and figure
(:mod:`repro.experiments`).

Quickstart::

    from repro import quick_fct
    fct = quick_fct("halfback", size=100_000)

"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "errors": (
        "ConfigurationError", "ExperimentError", "ProtocolError",
        "ReproError", "SimulationError", "TopologyError", "TransportError",
        "WorkloadError",
    ),
})
__all__.append("__version__")
