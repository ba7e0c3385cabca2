"""Observers are inert: watching a run must not change it.

One seeded Halfback flow over a lossy path, bare and under each
observation plane; the measured record and the logical event count
(fired + batching-absorbed) must be identical.
"""

import contextlib
import dataclasses
from unittest import mock

import pytest

from repro.audit.session import AuditSession
from repro.experiments import scenarios
from repro.hb.session import ProvenanceSession
from repro.obs.critical import BreakdownSession
from repro.obs.progress import ProgressPlane, ShardReporter, reporting
from repro.planetlab.paths import PathSpec
from repro.sim.simulator import Simulator
from repro.units import kb, mbps, ms

LOSSY_PATH = PathSpec(pair_id=3, rtt=ms(80), bottleneck_rate=mbps(10),
                      buffer_bytes=kb(64), loss_rate=0.05)


@contextlib.contextmanager
def progress_plane():
    with ProgressPlane(stream=None) as plane, \
            reporting(ShardReporter(0, plane.apply)):
        yield


def run_flow(observer):
    """(measured fields, logical events) of the one flow under
    ``observer`` (a context-manager factory)."""
    sims = []

    def capture(*args, **kwargs):
        sims.append(Simulator(*args, **kwargs))
        return sims[-1]

    with observer(), mock.patch.object(scenarios, "Simulator", capture):
        record = scenarios.run_single_path_flow(
            LOSSY_PATH, "halfback", size=100_000, seed=11)
    (sim,) = sims
    fields = dataclasses.asdict(record)
    del fields["spec"]  # flow ids come from a process-global counter
    fields["extra"].pop("breakdown", None)  # the one thing a plane adds
    return fields, sim.events_run + sim.events_absorbed


@pytest.fixture(scope="module")
def bare():
    fields, events = run_flow(contextlib.nullcontext)
    # The path must actually exercise recovery, or equality is vacuous.
    assert fields["complete_time"] is not None
    assert fields["extra"]["drops"] > 0
    assert fields["normal_retransmissions"] > 0
    return fields, events


@pytest.mark.parametrize("observer", [
    AuditSession, BreakdownSession, ProvenanceSession, progress_plane,
], ids=["audit", "breakdown", "provenance", "progress"])
def test_observed_run_equals_bare_run(bare, observer):
    assert run_flow(observer) == bare
