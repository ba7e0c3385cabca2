"""Deterministic network chaos: impairments, profiles, survival sweeps.

The chaos engine makes the simulator's networks *hostile* in named,
reproducible ways, and then holds every protocol to a liveness
contract while they suffer.  Three layers:

* :mod:`repro.chaos.impairments` — composable :class:`Impairment`
  objects attachable to any link: Gilbert–Elliott bursty loss, link
  flaps, blackhole windows, delay jitter, bandwidth modulation, payload
  corruption, duplication, and reordering;
* :mod:`repro.chaos.profiles` — named impairment bundles
  (``wifi-bursty``, ``flaky-uplink``, ``brownout``, ...) selectable per
  run via ``--chaos PROFILE[:seed]`` on every experiment target, plus
  the ambient :func:`session` that applies the active profile to every
  access network built inside it;
* :mod:`repro.chaos.sweep` — the survival harness
  (``python -m repro chaos sweep``): every protocol under every
  profile, enforcing that flows terminate (DONE, or FAILED with a
  structured ``abort_reason``), the simulator never stalls (the
  no-progress watchdog raises a diagnosable
  :class:`~repro.errors.StallError` otherwise), and audited runs stay
  violation-free.

All chaos randomness comes from named simulator streams keyed by the
profile seed, so every impairment schedule — and the sweep's result
fingerprint — is bit-identical across same-seed invocations.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "impairments": (
        "BandwidthModulation", "BlackholeWindow", "DelayJitter",
        "Duplication", "GilbertElliottLoss", "Impairment", "LinkFlap",
        "PayloadCorruption", "Reordering", "ReorderingQueue",
        "attach_duplicator",
    ),
    "procfault": ("ProcFaultPlan", "parse_procfault"),
    "profiles": (
        "AppliedChaos", "ChaosProfile", "available_profiles", "get_profile",
        "parse_profile", "register_profile", "session",
    ),
    "sweep": (
        "CellResult", "SweepReport", "run_cell", "run_sweep", "sweep_config",
    ),
})
