"""Tests for report rendering and the CLI."""

import importlib

import pytest

from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.report import (
    cdf_summary_rows,
    format_ms,
    format_pct,
    render_table,
)


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "longer"], [["1", "2"], ["333", "4"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "longer" in lines[1]
        assert "-+-" in lines[2]
        # Columns align: every row has the same separator position.
        positions = {line.index("|") for line in lines[1:] if "|" in line}
        assert len(positions) == 1

    def test_formatters(self):
        assert format_ms(0.0601) == "60.1ms"
        assert format_pct(0.5) == "50.0%"

    def test_cdf_summary_rows(self):
        rows = cdf_summary_rows([("x", [0.1, 0.2, 0.3]), ("empty", [])])
        assert rows[0][0] == "x"
        assert rows[0][1] == "3"
        assert rows[1][2] == "-"


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_figure_has_an_entry(self):
        expected = {"fig1", "fig2", "fig3", "table1", "fig5", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                    "fig13", "fig14", "fig15", "fig16", "fig17"}
        assert expected == set(EXPERIMENTS)

    def test_run_cheap_experiment_end_to_end(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "traffic" in out
        assert "internet" in out
        # Every run writes a schema-valid manifest by default.
        import json

        from repro.obs.manifest import validate_manifest

        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert validate_manifest(doc) == []
        assert doc["command"] == "experiments:fig2"
        assert doc["exit_status"] == 0
        assert doc["result"]["fingerprint"]

    def test_fig3_via_cli(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--seed", "1"]) == 0
        assert "ROPR order" in capsys.readouterr().out

    def test_no_manifest_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig2", "--no-manifest"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "run_manifest.json").exists()

    def test_manifest_custom_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "out" / "m.json"
        assert main(["fig2", "--manifest", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()


def _wrappers(scale, seed, jobs):
    """What the per-figure wrapper functions the registry table replaced
    passed to each module's ``run``: ``name -> (module, kwargs)``."""
    paths = {"n_paths": int(260 * scale), "seed": seed, "jobs": jobs}
    return {
        "fig1": ("fig01_tradeoff", {
            "utilizations": tuple(round(0.1 * i, 2) for i in range(1, 10)),
            "duration": max(5.0, 10 * scale), "seed": seed}),
        "fig2": ("fig02_traffic_cdf", {}),
        "fig3": ("fig03_example", {"seed": seed}),
        "table1": ("table1_taxonomy", {}),
        "fig5": ("fig05_retransmissions", paths),
        "fig6": ("fig06_planetlab_fct", paths),
        "fig7": ("fig07_rtt_counts", paths),
        "fig8": ("fig08_loss_fct", paths),
        "fig9": ("fig09_homenets", {
            "n_servers": max(4, int(40 * scale)), "seed": seed}),
        "fig10": ("fig10_bufferbloat", {
            "duration": max(20.0, 60 * scale), "seed": seed}),
        "fig11": ("fig11_flowsize", {
            "duration": max(10.0, 30 * scale), "seed": seed}),
        "fig12": ("fig12_utilization", {
            "duration": max(5.0, 15 * scale), "seed": seed, "jobs": jobs}),
        "fig13": ("fig13_short_long", {
            "duration": max(20.0, 40 * scale), "seed": seed}),
        "fig14": ("fig14_friendliness", {
            "duration": max(10.0, 30 * scale), "seed": seed}),
        "fig15": ("fig15_throughput", {"seed": seed}),
        "fig16": ("fig16_web", {
            "duration": max(15.0, 40 * scale), "seed": seed, "jobs": jobs}),
        "fig17": ("fig17_ablation", {
            "duration": max(5.0, 15 * scale), "seed": seed}),
    }


class _RecordingRun:
    """Stands in for a module's ``run``: the real parameter list (what
    the registry reads), and a call that only records its kwargs."""

    def __init__(self, real):
        self.__code__ = real.__code__
        self.kwargs = None

    def __call__(self, **kwargs):
        self.kwargs = kwargs


@pytest.mark.parametrize("scale", [0.01, 2.0])
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_registry_forwards_what_the_wrappers_passed(name, scale, monkeypatch):
    module, expected = _wrappers(scale, 5, 3)[name]
    m = importlib.import_module("repro.experiments." + module)
    run = _RecordingRun(m.run)
    monkeypatch.setattr(m, "run", run)
    _, runner = EXPERIMENTS[name]

    assert runner(scale, 5, 3) == (None, m.format_report)
    assert run.kwargs == expected
    # The two-argument call ``hb perturb`` makes: jobs=1.
    runner(scale, 5)
    assert run.kwargs == _wrappers(scale, 5, 1)[name][1]
