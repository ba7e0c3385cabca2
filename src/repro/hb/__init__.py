"""Schedule perturbation: the repo's determinism plane.

Every fingerprint guarantee the repo makes — serial vs ``--jobs N``
byte-identity, chaos-sweep reproducibility — rests on same-timestamp
scheduler events commuting.  This package checks that claim on
outcomes:

* :mod:`repro.hb.perturb` — re-run a scenario under a salted tie-break
  permutation (:func:`repro.sim.scheduler.tiebreak_permutation`) and
  assert the report fingerprint is bit-identical;
* :mod:`repro.hb.cli` — ``python -m repro hb perturb``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "perturb": ("PerturbationResult", "perturb"),
})

# ``perturb`` names both this export and the submodule providing it;
# bound now, a later ``import repro.hb.perturb`` cannot leave the module
# in the function's place.
from repro.hb.perturb import perturb  # noqa: E402
