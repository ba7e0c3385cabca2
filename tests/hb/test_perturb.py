"""Schedule-perturbation harness: commuting tie groups can't change
reports.

If same-timestamp events commute, ANY salted permutation of the
tie-break order must reproduce the canonical report bit-for-bit.  The
hand-built simulators below are the plane's seeded faults: an
order-sensitive pair must diverge under some salt, a causally chained
or commuting pair must not, and a dependence through state two owners
share must be caught as surely as one inside a single owner.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hb.perturb import (DEFAULT_SALTS, PerturbationResult,
                              PerturbedRun, fingerprint, perturb,
                              run_scenario)
from repro.sim.scheduler import tiebreak_permutation
from repro.sim.simulator import Simulator

QUICK = dict(scale=0.02, seed=17)

#: The salts every hand-built fault is run under.
SALTS = range(1, 9)


class TestFingerprint:
    def test_stable_and_content_sensitive(self):
        assert fingerprint("report") == fingerprint("report")
        assert fingerprint("report") != fingerprint("report ")

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="fig3"):
            run_scenario("nope")


class TestResultShape:
    def result(self, identical=True):
        fp = fingerprint("base")
        other = fp if identical else fingerprint("other")
        return PerturbationResult(
            scenario="fig3", scale=0.05, seed=17, baseline=fp,
            runs=[PerturbedRun(salt=1, fingerprint=fp, identical=True),
                  PerturbedRun(salt=2, fingerprint=other,
                               identical=identical)])

    def test_identical_requires_every_run(self):
        assert self.result(identical=True).identical
        assert not self.result(identical=False).identical

    def test_report_verdict_lines(self):
        passing = self.result(identical=True).report()
        assert "PASS" in passing and "salt 2" in passing
        failing = self.result(identical=False).report()
        assert "FAIL" in failing and "DIVERGED" in failing


class TestHarness:
    def test_fig3_is_invariant_across_default_salts(self):
        result = perturb("fig3", salts=DEFAULT_SALTS, **QUICK)
        assert len(result.runs) == 3
        assert result.identical, result.report()

    def test_fig6_is_invariant_across_default_salts(self):
        result = perturb("fig6", salts=DEFAULT_SALTS, **QUICK)
        assert result.identical, result.report()

    @settings(max_examples=5, deadline=None)
    @given(salt=st.integers(min_value=1, max_value=2**31 - 1))
    def test_any_salt_reproduces_fig3(self, salt):
        """Property: permuting commuting events never changes the
        fig. 3 report, whatever the salt."""
        result = perturb("fig3", salts=[salt], **QUICK)
        assert result.identical, result.report()


# ----------------------------------------------------------------------
# Hand-built seeded faults
# ----------------------------------------------------------------------


def outcome(build, salt=None):
    """Run the simulator ``build(sim)`` sets up, canonically or under
    ``salt``, and return what its ``build`` reports afterwards."""
    if salt is None:
        sim = Simulator()
    else:
        with tiebreak_permutation(salt):
            sim = Simulator()
    report = build(sim)
    sim.run()
    return report()


def diverging_salts(build):
    baseline = outcome(build)
    return [salt for salt in SALTS if outcome(build, salt) != baseline]


class Register:
    """One owner whose last write wins."""

    def __init__(self):
        self.writes = []

    def write(self, value):
        self.writes.append(value)


class Buffer:
    """A bounded FIFO two owners share, counting what it turns away."""

    def __init__(self, capacity, items=()):
        self.capacity = capacity
        self.items = list(items)
        self.drops = 0


class Filler:
    def __init__(self, buffer):
        self.buffer = buffer

    def fill(self, item):
        if len(self.buffer.items) >= self.buffer.capacity:
            self.buffer.drops += 1
        else:
            self.buffer.items.append(item)


class Drainer:
    def __init__(self, buffer):
        self.buffer = buffer
        self.taken = []

    def drain(self):
        if self.buffer.items:
            self.taken.append(self.buffer.items.pop(0))


class TestHandBuiltFaults:
    def test_order_sensitive_pair_diverges(self):
        def build(sim):
            register = Register()
            sim.schedule(1.0, register.write, "a")
            sim.schedule(1.0, register.write, "b")
            return lambda: register.writes[-1]
        assert diverging_salts(build)

    def test_causally_chained_pair_stays_identical(self):
        def build(sim):
            register = Register()

            def first():
                register.write("a")
                # Same instant, same owner, but scheduled by the first:
                # no permutation can run it before its parent.
                sim.schedule(0.0, register.write, "b")
            sim.schedule(1.0, first)
            return lambda: tuple(register.writes)
        assert diverging_salts(build) == []

    def test_commuting_pair_stays_identical(self):
        def build(sim):
            counter = {"n": 0}

            def bump():
                counter["n"] += 1
            sim.schedule(1.0, bump)
            sim.schedule(1.0, bump)
            return lambda: counter["n"]
        assert diverging_salts(build) == []

    def test_cross_owner_dependence_diverges(self):
        """The shape of the fig16 witness (DESIGN.md §6): one owner
        fills a full bounded buffer while another drains it at the same
        instant; whether the fill is dropped depends on who runs first,
        though the two callbacks belong to different owners."""
        def build(sim):
            buffer = Buffer(capacity=1, items=["queued"])
            filler, drainer = Filler(buffer), Drainer(buffer)
            sim.schedule(1.0, drainer.drain)
            sim.schedule(1.0, filler.fill, "arrival")
            return lambda: (buffer.drops, tuple(buffer.items))
        assert outcome(build) == (0, ("arrival",))
        salts = diverging_salts(build)
        assert salts
        assert {outcome(build, salt) for salt in salts} == {(1, ())}
