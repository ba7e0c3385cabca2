"""Happens-before observatory over the scheduler provenance plane.

The schema-v5 ``sched.exec`` family (see :mod:`repro.telemetry.schema`)
records, for every executed simulator event, the entity whose state the
callback mutates, the event's logical sequence number, and its
*scheduling parent* — the event whose callback scheduled it.  This
package turns that stream, together with the v2 ``pkt.*`` lineage
events, into a first-class causal observability plane:

* :mod:`repro.hb.ties` — the causal edge rules and the per-tie-group
  race rule, the one reading the graph, the audit checker and the
  ``races`` CLI share;
* :mod:`repro.hb.graph` — the :class:`~repro.hb.graph.HBGraph` builder:
  the happens-before DAG (program-order, scheduling, timer, message,
  and ACK edges) with stats, race enumeration, and DOT / Perfetto
  exporters;
* :mod:`repro.hb.detect` — the streaming scheduler-nondeterminism audit
  checker (same-timestamp event pairs on one entity with no causal
  path), registered in :func:`repro.audit.invariants.default_checkers`;
* :mod:`repro.hb.perturb` — the schedule-perturbation harness: re-run a
  scenario under a salted tie-break permutation
  (:func:`repro.sim.scheduler.tiebreak_permutation`) and assert the
  report fingerprint is bit-identical;
* :mod:`repro.hb.session` — :func:`~repro.hb.session.provenance_stream`
  and :class:`~repro.hb.session.ProvenanceSession`, which switch
  provenance (and lineage) recording on for a scoped run and stream /
  collect its records;
* :mod:`repro.hb.cli` — ``python -m repro hb {stats|races|export|perturb}``.

Every fingerprint guarantee the repo makes — serial vs ``--jobs N``
byte-identity, chaos-sweep reproducibility — rests on same-timestamp
scheduler events commuting.  This package is what turns that assumption
into a checked invariant (statically via the race check, dynamically
via the perturbation harness).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "detect": ("SchedulerNondeterminismChecker",),
    "graph": ("HBGraph", "build_graph"),
    "perturb": ("PerturbationResult", "perturb"),
    "session": ("ProvenanceSession", "provenance_stream"),
})

# ``perturb`` names both this export and the submodule providing it;
# bound now, a later ``import repro.hb.perturb`` cannot leave the module
# in the function's place.
from repro.hb.perturb import perturb  # noqa: E402
