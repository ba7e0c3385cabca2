"""The liveness contract as a property: survive *any* composed chaos.

Hypothesis composes a random impairment mix (loss, flaps, blackholes,
jitter, brownouts, corruption, duplication, reordering — any subset, on
either direction, with drawn parameters) into an ad-hoc profile and runs
an audited sweep cell under it.  Whatever the network does, the contract
must hold: every flow terminates (DONE, or FAILED with a structured
abort reason), the no-progress watchdog never fires, and the invariant
checkers stay silent.
"""

from hypothesis import given, settings, strategies as st

from repro.audit import AuditSession
from repro.chaos.impairments import (
    BandwidthModulation,
    BlackholeWindow,
    DelayJitter,
    Duplication,
    GilbertElliottLoss,
    LinkFlap,
    PayloadCorruption,
    Reordering,
)
from repro.chaos.profiles import ChaosProfile
from repro.chaos.sweep import run_cell

# One entry per impairment family: a strategy for its constructor args
# and the constructor itself.  Parameter ranges are chosen hostile but
# recoverable-or-abortable within the sweep's 30s flow deadline.
IMPAIRMENT_STRATEGIES = [
    st.tuples(st.just(GilbertElliottLoss),
              st.fixed_dictionaries({
                  "p_enter_bad": st.floats(0.0, 0.05),
                  "p_exit_bad": st.floats(0.1, 0.9),
                  "loss_bad": st.floats(0.2, 0.8),
              })),
    st.tuples(st.just(LinkFlap),
              st.fixed_dictionaries({
                  "up_time": st.floats(0.5, 2.0),
                  "down_time": st.floats(0.1, 0.5),
                  "jitter": st.floats(0.0, 0.5),
              })),
    st.tuples(st.just(BlackholeWindow),
              st.fixed_dictionaries({
                  "start": st.floats(0.0, 1.0),
                  "duration": st.floats(0.2, 2.0),
              })),
    st.tuples(st.just(DelayJitter),
              st.fixed_dictionaries({
                  "amplitude": st.floats(0.0, 0.01),
              })),
    st.tuples(st.just(BandwidthModulation),
              st.fixed_dictionaries({
                  "factors": st.lists(st.floats(0.2, 1.0),
                                      min_size=1, max_size=4)
                  .map(tuple),
                  "step": st.floats(0.5, 1.5),
              })),
    st.tuples(st.just(PayloadCorruption),
              st.fixed_dictionaries({
                  "prob": st.floats(0.0, 0.05),
              })),
    st.tuples(st.just(Duplication),
              st.fixed_dictionaries({
                  "prob": st.floats(0.0, 0.1),
              })),
    st.tuples(st.just(Reordering),
              st.fixed_dictionaries({
                  "swap_prob": st.floats(0.0, 0.5),
              })),
]

placements = st.lists(
    st.tuples(st.sampled_from(["forward", "reverse"]),
              st.one_of(IMPAIRMENT_STRATEGIES)),
    min_size=1, max_size=3,
)


def composed_profile(recipe, seed: int) -> ChaosProfile:
    """An ad-hoc (unregistered) profile from a drawn recipe."""

    def build(profile_seed):
        return [(direction, factory(seed=profile_seed, **kwargs))
                for direction, (factory, kwargs) in recipe]

    return ChaosProfile("composed", "hypothesis-drawn impairment mix",
                        build, seed=seed)


class TestLivenessContract:
    @settings(max_examples=12, deadline=None)
    @given(
        recipe=placements,
        protocol=st.sampled_from(["halfback", "tcp", "jumpstart"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_flow_terminates_and_audit_stays_clean(
            self, recipe, protocol, seed):
        with AuditSession():
            cell = run_cell(protocol, composed_profile(recipe, seed),
                            seed=seed, n_flows=2, size=30_000)
        assert not cell.stalled, "\n".join(cell.stall_dump)
        assert cell.pending == 0, \
            f"{cell.pending} flows neither DONE nor FAILED"
        assert cell.completed + cell.failed == cell.flows
        assert sum(cell.abort_reasons.values()) == cell.failed, \
            "a FAILED flow is missing its structured abort reason"
        assert cell.violations == [], "\n".join(cell.violations)
