"""The schedule-perturbation harness.

Every fingerprint guarantee rests on same-timestamp scheduler events
commuting; this module checks that claim on outcomes.  A scenario is
run once with the canonical FIFO tie-break, then re-run under
:func:`repro.sim.scheduler.tiebreak_permutation` with each requested
salt — every simulator built during the re-run resolves
same-``(time, priority)`` ties in a salted, bijectively scrambled order
instead of FIFO.  Any permutation of a tie group is a valid causal
execution (an event cannot be in the heap before the event that
scheduled it has fired), so if the commutation claim holds, every
re-run must produce a **bit-identical report fingerprint**.  A mismatch
is a concrete, reproducible witness of execution-order sensitivity,
wherever the dependence lives: one owner's state, or a buffer two
owners share.

Scenarios are the named experiments from
:data:`repro.experiments.cli.EXPERIMENTS`, run in-process at a quick
scale with ``jobs=1`` so the ambient salt reaches every simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.sim.scheduler import tiebreak_permutation

__all__ = ["PerturbedRun", "PerturbationResult", "run_scenario", "perturb",
           "DEFAULT_SALTS"]

#: Salts used when the caller does not choose; three distinct
#: permutations is the floor the acceptance bar asks for.
DEFAULT_SALTS = (1, 2, 3)

#: Quick-run scale passed to scaled experiments (fig6 at 0.05 runs 13
#: of the 260 PlanetLab paths; unscaled experiments ignore it).
DEFAULT_SCALE = 0.05


def fingerprint(report: str) -> str:
    """SHA-256 hex digest of a report's exact bytes."""
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def run_scenario(name: str, scale: float = DEFAULT_SCALE,
                 seed: int = 17) -> str:
    """Run experiment ``name`` in-process and return its report text."""
    from repro.experiments.cli import EXPERIMENTS
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    _, runner = EXPERIMENTS[name]
    result, formatter = runner(scale, seed)
    return formatter(result)


@dataclass
class PerturbedRun:
    """One permuted re-run of a scenario."""

    salt: int
    fingerprint: str
    identical: bool


@dataclass
class PerturbationResult:
    """Baseline fingerprint plus every permuted re-run's verdict."""

    scenario: str
    scale: float
    seed: int
    baseline: str
    runs: List[PerturbedRun] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when every permuted run matched the baseline."""
        return all(run.identical for run in self.runs)

    def report(self) -> str:
        """Human-readable harness summary."""
        lines = [
            f"scenario {self.scenario} (scale={self.scale}, "
            f"seed={self.seed})",
            f"baseline fingerprint: {self.baseline}",
        ]
        for run in self.runs:
            verdict = "identical" if run.identical else "DIVERGED"
            lines.append(f"salt {run.salt}: {run.fingerprint} [{verdict}]")
        lines.append("schedule perturbation: "
                     + ("PASS — tie-break order does not affect results"
                        if self.identical else
                        "FAIL — results depend on tie-break order"))
        return "\n".join(lines)


def perturb(scenario: str, salts: Sequence[int] = DEFAULT_SALTS,
            scale: float = DEFAULT_SCALE, seed: int = 17,
            ) -> PerturbationResult:
    """Run ``scenario`` canonically, then once per salt with permuted
    tie-breaks, comparing report fingerprints bit-for-bit."""
    baseline = fingerprint(run_scenario(scenario, scale=scale, seed=seed))
    result = PerturbationResult(scenario=scenario, scale=scale, seed=seed,
                                baseline=baseline)
    for salt in salts:
        with tiebreak_permutation(salt):
            fp = fingerprint(run_scenario(scenario, scale=scale, seed=seed))
        result.runs.append(PerturbedRun(salt=salt, fingerprint=fp,
                                        identical=fp == baseline))
    return result
