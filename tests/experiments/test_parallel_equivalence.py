"""Process-parallel sweep fan-out must match serial runs bit for bit.

Each sweep cell is a self-contained simulation keyed by a derived seed,
and the harness merges worker results in the serial cell order, so a
``jobs > 1`` run is required to produce exactly the same records and
reports as ``jobs=1``.  These are deliberately tiny workloads — the
point is the merge order and seeding, not the physics.
"""

import dataclasses

import pytest

from repro.experiments import fig12_utilization as fig12
from repro.experiments import fig16_web as fig16
from repro.experiments.planetlab_runs import run_planetlab_trials
from repro.obs.critical import BreakdownSession


def _comparable(record):
    """A record with the process-global flow-id counter factored out.

    Flow ids only disambiguate flows within one run; they never enter
    reports or fingerprints, so equivalence is everything-but-the-id.
    """
    doc = dataclasses.asdict(record)
    doc["spec"].pop("flow_id")
    return doc


def test_planetlab_trials_parallel_matches_serial():
    kwargs = dict(n_paths=4, protocols=("tcp", "halfback"), seed=5,
                  flow_size=30_000)
    serial = run_planetlab_trials(jobs=1, **kwargs)
    fanned = run_planetlab_trials(jobs=2, **kwargs)
    assert fanned.paths == serial.paths
    for protocol in kwargs["protocols"]:
        assert ([_comparable(r) for r in fanned.by_protocol[protocol].records]
                == [_comparable(r)
                    for r in serial.by_protocol[protocol].records])


def test_fig12_sweep_parallel_matches_serial():
    kwargs = dict(protocols=["tcp", "halfback"], utilizations=(0.2, 0.4),
                  duration=2.0, seed=3, n_pairs=4)
    serial = fig12.sweep_protocols(jobs=1, **kwargs)
    fanned = fig12.sweep_protocols(jobs=2, **kwargs)
    assert fanned.points == serial.points
    assert fig12.format_report(fanned) == fig12.format_report(serial)


def _attributed(run, **kwargs):
    """``run(**kwargs)`` under a run-level breakdown session: the result
    and the session's aggregate."""
    with BreakdownSession() as session:
        result = run(**kwargs)
    return result, session.aggregate


def test_fig6_breakdown_parallel_matches_serial():
    from repro.experiments import fig06_planetlab_fct as fig6

    kwargs = dict(n_paths=4, protocols=("tcp", "halfback"), seed=5)
    serial, serial_agg = _attributed(fig6.run, jobs=1, **kwargs)
    fanned, fanned_agg = _attributed(fig6.run, jobs=2, **kwargs)
    assert serial_agg.flows == 8
    # The acceptance bar: the attribution (and so the CLI's breakdown
    # section) is byte-identical for any --jobs value.
    assert fanned_agg.report() == serial_agg.report()
    assert fig6.format_report(fanned) == fig6.format_report(serial)
    # Attribution is observational: the figure is what a breakdown-off
    # run prints.
    assert fig6.format_report(fig6.run(jobs=1, **kwargs)) \
        == fig6.format_report(serial)


def test_fig12_breakdown_parallel_matches_serial():
    kwargs = dict(protocols=["tcp", "halfback"], utilizations=(0.2, 0.4),
                  duration=2.0, seed=3, n_pairs=4)
    serial, serial_agg = _attributed(fig12.sweep_protocols, jobs=1, **kwargs)
    fanned, fanned_agg = _attributed(fig12.sweep_protocols, jobs=2, **kwargs)
    assert serial_agg.flows > 0
    assert fanned_agg.fingerprint() == serial_agg.fingerprint()
    assert fig12.format_report(fanned) == fig12.format_report(serial)
    # Attribution is observational: the curves and the streamed
    # aggregate are what a breakdown-off run produces, bit for bit.
    plain = fig12.sweep_protocols(jobs=1, **kwargs)
    assert plain.points == serial.points
    assert plain.aggregate.fingerprint() == serial.aggregate.fingerprint()


def test_trace_viewer_spans_get_serial_ids_for_any_jobs():
    from repro.obs.critical import id_marks

    def spans(jobs):
        with BreakdownSession(keep_spans=True) as session:
            flow0, uid0 = id_marks()
            run_planetlab_trials(n_paths=3, protocols=("tcp", "halfback"),
                                 seed=5, flow_size=30_000, jobs=jobs)
        # Ids relative to the run's counters, which the merge moves past
        # every id the cells allocated.
        flow1, uid1 = id_marks()
        assert flow1 >= flow0 + 6 and uid1 > uid0
        return [(b.flow - flow0, [p["uid"] - uid0 for p in b.packets],
                 b.intervals) for b in session.completed]

    serial = spans(1)
    assert len(serial) == 6 and serial[0][1]
    assert spans(2) == serial


def test_fig16_web_parallel_matches_serial():
    kwargs = dict(protocols=["tcp", "halfback"], utilizations=(0.2, 0.4),
                  duration=4.0, seed=3, n_pairs=4)
    serial = fig16.run(jobs=1, **kwargs)
    fanned = fig16.run(jobs=2, **kwargs)
    assert fanned.curves == serial.curves
    assert fig16.format_report(fanned) == fig16.format_report(serial)


#: Each fanned-out figure at its smallest size: fig5-8 at the CLI's
#: smallest useful scale, fig12/fig16 through a registry row shrunk to a
#: 2 x 2 cell matrix (their CLI floor is minutes of simulation).
SMALLEST = {
    "fig5": None, "fig6": None, "fig7": None, "fig8": None,
    "fig12": ("fig12_utilization", dict(
        protocols=("tcp", "halfback"), utilizations=(0.2, 0.4),
        duration=2.0, n_pairs=4)),
    "fig16": ("fig16_web", dict(
        protocols=("tcp", "halfback"), utilizations=(0.2, 0.4),
        duration=4.0, n_pairs=4)),
}


def _stdout(argv, capsys):
    from repro.experiments.cli import main

    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines()
            if not (" finished in " in line
                    or line.startswith(("[scheduler tie-breaks:",
                                        "[run manifest:")))]


@pytest.mark.parametrize("name", list(SMALLEST))
def test_breakdown_stdout_is_the_same_for_any_jobs(name, capsys,
                                                   monkeypatch):
    from repro.experiments import cli

    shrunk = SMALLEST[name]
    if shrunk is not None:
        module, kwargs = shrunk
        description, _ = cli.EXPERIMENTS[name]
        monkeypatch.setitem(cli.EXPERIMENTS, name, cli._experiment(
            description, module, lambda scale: dict(kwargs)))
    argv = [name, "--scale", "0.02", "--breakdown", "--no-manifest"]
    serial = _stdout(argv + ["--jobs", "1"], capsys)
    fanned = _stdout(argv + ["--jobs", "2"], capsys)
    assert fanned == serial
    # One attribution record, closing the run, with its fingerprint.
    assert serial.count("== breakdown ==") == 1
    assert sum(line.startswith("breakdown fingerprint:")
               for line in serial) == 1
