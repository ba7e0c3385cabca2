"""Determinism: same seed, byte-identical telemetry exports.

Two fresh interpreter invocations of the same experiment with the same
seed must stream byte-identical ``trace.jsonl`` and ``metrics.json``
files.  (``profile.json`` holds wall-clock timings and is exempt — that
is exactly why the profiler's output is kept in a separate file.)

Fresh processes matter: flow ids come from a process-global counter, so
an in-process repeat would renumber flows and trivially differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_fig3(out_dir: Path, audit_dir: Path = None) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    argv = [sys.executable, "-m", "repro", "fig3", "--seed", "42",
            "--telemetry", str(out_dir),
            "--manifest", str(out_dir / "run_manifest.json")]
    if audit_dir is not None:
        argv += ["--audit", str(audit_dir)]
    result = subprocess.run(
        argv,
        cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("telemetry-run1")
    second = tmp_path_factory.mktemp("telemetry-run2")
    run_fig3(first)
    run_fig3(second)
    return first, second


def test_trace_export_is_byte_identical(two_runs):
    first, second = two_runs
    a = (first / "trace.jsonl").read_bytes()
    b = (second / "trace.jsonl").read_bytes()
    assert a, "first run produced an empty trace"
    assert a == b


def test_metrics_export_is_byte_identical(two_runs):
    first, second = two_runs
    a = (first / "metrics.json").read_bytes()
    b = (second / "metrics.json").read_bytes()
    assert a, "first run produced empty metrics"
    assert a == b


def test_profile_exists_but_is_not_compared(two_runs):
    first, __ = two_runs
    assert (first / "profile.json").exists()


@pytest.fixture(scope="module")
def two_audited_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("audited-run1")
    second = tmp_path_factory.mktemp("audited-run2")
    run_fig3(first, audit_dir=first / "audit")
    run_fig3(second, audit_dir=second / "audit")
    return first, second


def test_audited_trace_is_byte_identical(two_audited_runs):
    """Auditing observes the run — lineage events included, the trace
    stays deterministic."""
    first, second = two_audited_runs
    a = (first / "trace.jsonl").read_bytes()
    b = (second / "trace.jsonl").read_bytes()
    assert a == b


def test_audited_trace_carries_lineage_events(two_audited_runs):
    first, __ = two_audited_runs
    trace = (first / "trace.jsonl").read_text()
    for kind in ('"pkt.send"', '"pkt.enqueue"', '"pkt.tx"',
                 '"pkt.deliver"', '"pkt.ack_gen"'):
        assert kind in trace, f"audited trace is missing {kind} events"


def test_audit_only_adds_events_never_reorders(two_runs, two_audited_runs):
    """The audited trace is the plain trace plus lineage events: the
    subsequence without those must be identical, so auditing cannot have
    perturbed the simulation itself."""
    plain, __ = two_runs
    audited, __ = two_audited_runs

    def non_audit(path: Path):
        return [line for line in path.read_text().splitlines()
                if not json.loads(line)["kind"].startswith("pkt.")]

    assert non_audit(audited / "trace.jsonl") == \
        non_audit(plain / "trace.jsonl")


def test_clean_audited_run_leaves_no_bundle(two_audited_runs):
    first, __ = two_audited_runs
    assert not (first / "audit").exists()
