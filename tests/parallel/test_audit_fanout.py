"""Auditing that fans out: nested ``AuditSession``s, one per cell.

Under an ambient ``AuditSession`` :func:`repro.parallel.fanout_map`
audits every cell — inline or in a worker — in its own nested session
and merges what it ships (counts, violations, the frozen post-mortem
bundle) in cell order, so ``jobs`` changes no verdict and no bundle.
"""

import json

import pytest

from repro.audit import AuditSession
from repro.audit.faults import seed_ack_regression, seed_ropr_misorder
from repro.net.topology import access_network
from repro.parallel import (
    CellJournal,
    fanout_map,
    fanout_stats,
    journaling,
    reset_fanout_stats,
)
from repro.protocols.registry import create_sender
from repro.sim.simulator import (
    Simulator,
    reset_tie_break_stats,
    tie_break_stats,
)
from repro.transport.flow import FlowRecord, FlowSpec, next_flow_id
from repro.transport.receiver import Receiver
from repro.units import MSS

#: cell -> the seeded bug it carries (None: a clean flow).
FAULTS = {"ack": lambda sender, receiver: seed_ack_regression(receiver),
          "ropr": lambda sender, receiver: seed_ropr_misorder(sender)}

#: Two dirty cells, the first of them the second cell.
CELLS = [(1, None), (2, "ack"), (3, None), (4, "ropr"), (5, None)]

BUNDLE = ["postmortem.txt", "ring.jsonl", "violations.json"]


def _flow_cell(cell):
    """One 60-segment Halfback flow, seeded with the cell's bug."""
    seed, fault = cell
    sim = Simulator(seed=seed)
    net = access_network(sim, n_pairs=1)
    sender_host, receiver_host = net.pair(0)
    spec = FlowSpec(next_flow_id(), sender_host.name, receiver_host.name,
                    size=60 * MSS, protocol="halfback")
    receiver = Receiver(sim, receiver_host, spec.flow_id)
    sender = create_sender(sim, sender_host, spec, record=FlowRecord(spec))
    if fault is not None:
        FAULTS[fault](sender, receiver)
    sender.start()
    sim.run(until=250.0)
    return seed


def _crash_cell(cell):
    """Raises inside a simulator callback on cell 2."""
    sim = Simulator(seed=cell)

    def boom():
        raise RuntimeError(f"injected in cell {cell}")

    if cell == 2:
        sim.schedule(0.5, boom)
    sim.run(until=1.0)
    return cell


def _triples(session):
    return [(v.checker, v.time, v.message) for v in session.violations]


def test_nested_session_suspends_the_enclosing_auditor():
    with AuditSession() as outer:
        _flow_cell((1, None))
        before = outer.auditor.events_audited
        with AuditSession() as inner:
            _flow_cell((2, "ack"))
        # The inner session saw its flow alone...
        assert outer.auditor.events_audited == before
        assert inner.auditor.events_audited > 0
        assert not inner.clean and outer.clean
        # ...and the outer one audits again once it is left.
        _flow_cell((3, None))
        assert outer.auditor.events_audited > before


@pytest.mark.parametrize("jobs", [1, 2])
def test_fanout_verdicts_and_bundle_match_serial_cells(jobs, tmp_path):
    alone = []
    for cell in CELLS:
        with AuditSession() as session:
            _flow_cell(cell)
        alone.append(session)
    first_dirty = next(index for index, session in enumerate(alone)
                       if not session.clean)
    with AuditSession(out_dir=str(tmp_path / "first")) as session:
        _flow_cell(CELLS[first_dirty])
    expected = json.loads((tmp_path / "first" / "violations.json")
                          .read_text())

    out = tmp_path / "run"
    with AuditSession(out_dir=str(out)) as run:
        assert fanout_map(_flow_cell, CELLS, jobs=jobs) == \
            [seed for seed, _ in CELLS]
    assert run.clean is False
    assert _triples(run) == [triple for session in alone
                             for triple in _triples(session)]
    assert run.auditor.events_audited == sum(
        session.auditor.events_audited for session in alone)
    # Exactly one bundle, written by the run: the first dirty cell's.
    assert sorted(path.name for path in out.iterdir()) == BUNDLE
    doc = json.loads((out / "violations.json").read_text())
    assert doc["reason"] == expected["reason"]
    assert {v["checker"] for v in doc["violations"]} == \
        {v["checker"] for v in expected["violations"]}
    assert f"post-mortem bundle: {out}" in run.report()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_crashing_cell_leaves_its_crash_bundle(jobs, tmp_path):
    out = tmp_path / "crash"
    with pytest.raises(RuntimeError, match="injected in cell 2"):
        with AuditSession(out_dir=str(out)):
            fanout_map(_crash_cell, [1, 2, 3], jobs=jobs)
    doc = json.loads((out / "violations.json").read_text())
    assert doc["reason"].startswith("crash: RuntimeError")


def test_audited_journals_replay_only_into_audited_runs(tmp_path):
    cells = CELLS[:3]

    def run(state, audited):
        reset_fanout_stats()
        with journaling(CellJournal(str(tmp_path / state))):
            if not audited:
                return fanout_map(_flow_cell, cells), None
            with AuditSession() as session:
                return fanout_map(_flow_cell, cells), session

    run("audited", True)
    assert run("audited", False)[1] is None
    assert fanout_stats()["replayed"] == 0
    run("plain", False)
    _, session = run("plain", True)
    assert fanout_stats()["replayed"] == 0
    assert not session.clean
    # Observed alike, a journal replays every cell, violations included.
    _, replayed = run("audited", True)
    assert fanout_stats()["replayed"] == len(cells)
    assert _triples(replayed) == _triples(session)


def test_tie_break_counts_cover_worker_cells():
    counts = []
    for jobs in (1, 2):
        reset_tie_break_stats()
        fanout_map(_flow_cell, CELLS, jobs=jobs)
        counts.append(tie_break_stats())
    assert counts[0] == counts[1]
    assert counts[0]["groups"] > 0
