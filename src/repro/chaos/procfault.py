"""Process-fault injection for the harness itself.

PR 4's chaos engine impairs the *network under test*; this module
impairs the *execution plane* that runs it — worker kills, silent
hangs, raised exceptions, slow starts — so the shard supervisor's
recovery machinery can be exercised deterministically in tests and CI
instead of waiting for a real OOM kill to find the bugs.

A plan is a seeded, declarative schedule parsed from a compact spec::

    kill@2              SIGKILL the worker running shard 2 (attempt 0)
    kill@2.1            ... on its second attempt instead
    hang@5/20           shard 5 goes heartbeat-silent for 20s
    raise@3             shard 3 raises ProcFaultError
    slow@0/1.5          shard 0 sleeps 1.5s before starting work
    kill%10             every shard: 10% seeded chance of a kill
    seed=7              reseed the probabilistic terms

Terms are comma-separated and explicit terms target first attempts by
default, so a supervised retry of the faulted shard succeeds — which is
exactly the retry-then-recover path the supervisor tests need to see.
Probabilistic (``%``) terms fire only on attempt 0 for the same reason,
and derive per-shard coin flips from ``sha256(seed:kind:shard)`` — the
same schedule in every process that parses the same spec.

Faults fire *inside the worker*, between the shard's start heartbeat
and its cell body (see :func:`repro.parallel.pool._pool_task`), so a
``hang`` is a started-then-silent shard and a ``kill`` breaks the pool
mid-cell: the two failure shapes the supervisor must survive.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ChaosError, ProcFaultError
from repro.telemetry import context

__all__ = ["ProcFaultPlan", "activate", "activated", "current_plan",
           "parse_procfault"]

FAULT_KINDS = ("kill", "hang", "raise", "slow")

#: Default durations for timed faults (seconds).
HANG_SECONDS = 60.0
SLOW_SECONDS = 1.0


@dataclass(frozen=True)
class _Term:
    kind: str
    #: Explicit target (shard, attempt), or None for probabilistic.
    shard: Optional[int]
    attempt: int
    #: Probabilistic fire rate in percent (None for explicit terms).
    rate: Optional[float]
    seconds: float


class ProcFaultPlan:
    """A parsed, deterministic schedule of process faults."""

    def __init__(self, terms: List[_Term], seed: int, spec: str) -> None:
        self.terms = list(terms)
        self.seed = seed
        #: The original spec string (re-parsed identically in workers).
        self.spec = spec

    def fault_for(self, shard: int, attempt: int) -> Optional[Tuple[str, float]]:
        """The (kind, seconds) fault scheduled for this execution, or
        None.  First matching term wins."""
        for term in self.terms:
            if term.shard is not None:
                if term.shard == shard and term.attempt == attempt:
                    return (term.kind, term.seconds)
                continue
            if attempt != 0:
                continue  # probabilistic faults never dog-pile retries
            coin = hashlib.sha256(
                f"{self.seed}:{term.kind}:{shard}".encode("ascii")).digest()
            if (int.from_bytes(coin[:8], "big") % 10_000) < term.rate * 100:
                return (term.kind, term.seconds)
        return None

    def inject(self, shard: int, attempt: int) -> None:
        """Execute the scheduled fault for ``(shard, attempt)``, if any.

        ``kill`` SIGKILLs the calling process (no cleanup — that is the
        point), ``hang`` sleeps heartbeat-silent, ``raise`` raises
        :class:`~repro.errors.ProcFaultError`, ``slow`` sleeps then
        returns so the cell proceeds.
        """
        fault = self.fault_for(shard, attempt)
        if fault is None:
            return
        kind, seconds = fault
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(seconds)
        elif kind == "raise":
            raise ProcFaultError(
                f"injected fault: shard {shard} attempt {attempt}")
        elif kind == "slow":
            time.sleep(seconds)

    def describe(self) -> Dict[str, object]:
        return {"spec": self.spec, "seed": self.seed,
                "terms": len(self.terms)}


def _parse_target(text: str, kind: str) -> Tuple[int, int]:
    """Parse ``SHARD[.ATTEMPT]`` after an ``@``."""
    shard_text, _, attempt_text = text.partition(".")
    try:
        shard = int(shard_text)
        attempt = int(attempt_text) if attempt_text else 0
    except ValueError:
        raise ChaosError(
            f"procfault: bad target {text!r} for {kind!r} "
            f"(expected SHARD[.ATTEMPT])") from None
    if shard < 0 or attempt < 0:
        raise ChaosError(f"procfault: negative target in {text!r}")
    return shard, attempt


def parse_procfault(spec: str) -> ProcFaultPlan:
    """Parse a procfault spec string into a :class:`ProcFaultPlan`.

    Grammar (comma-separated terms)::

        KIND@SHARD[.ATTEMPT][/SECONDS]   explicit fault
        KIND%PCT                         seeded per-shard rate
        seed=N                           seed for % terms (default 0)

    with KIND one of ``kill``, ``hang``, ``raise``, ``slow``.
    """
    terms: List[_Term] = []
    seed = 0
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):])
            except ValueError:
                raise ChaosError(
                    f"procfault: bad seed in {part!r}") from None
            continue
        body, slash, seconds_text = part.partition("/")
        if "@" in body:
            kind, _, target = body.partition("@")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise ChaosError(f"procfault: unknown fault kind {kind!r} "
                                 f"(expected one of {', '.join(FAULT_KINDS)})")
            shard, attempt = _parse_target(target.strip(), kind)
            rate = None
        elif "%" in body:
            kind, _, rate_text = body.partition("%")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise ChaosError(f"procfault: unknown fault kind {kind!r} "
                                 f"(expected one of {', '.join(FAULT_KINDS)})")
            try:
                rate = float(rate_text)
            except ValueError:
                raise ChaosError(
                    f"procfault: bad rate in {part!r}") from None
            if not 0.0 <= rate <= 100.0:
                raise ChaosError(
                    f"procfault: rate must be 0..100, got {rate!r}")
            shard, attempt = None, 0
        else:
            raise ChaosError(
                f"procfault: cannot parse term {part!r} "
                f"(expected KIND@SHARD[.ATTEMPT][/SECONDS] or KIND%PCT)")
        if slash:
            try:
                seconds = float(seconds_text)
            except ValueError:
                raise ChaosError(
                    f"procfault: bad duration in {part!r}") from None
            if seconds < 0:
                raise ChaosError(
                    f"procfault: negative duration in {part!r}")
        else:
            seconds = HANG_SECONDS if kind == "hang" else (
                SLOW_SECONDS if kind == "slow" else 0.0)
        terms.append(_Term(kind=kind, shard=shard, attempt=attempt,
                           rate=rate, seconds=seconds))
    if not terms:
        raise ChaosError(f"procfault: empty spec {spec!r}")
    return ProcFaultPlan(terms, seed, spec)


# ----------------------------------------------------------------------
# Ambient plan (consulted by repro.parallel.pool inside each worker)
# ----------------------------------------------------------------------


def current_plan() -> Optional[ProcFaultPlan]:
    """The ambient process-fault plan, or None."""
    return context.ambient.procfault


def activate(plan: Optional[ProcFaultPlan]) -> Optional[ProcFaultPlan]:
    """Install ``plan`` as the ambient plan and return the previous one;
    nothing restores it (:func:`activated` is the scoped form)."""
    return context.enter(procfault=plan)["procfault"]


def activated(plan: Optional[ProcFaultPlan]):
    """Make ``plan`` ambient for a ``with`` block."""
    return context.scope(procfault=plan)
