"""Both sweep CLIs end a run through one ``RunSession``.

One table: every row of the ending table
(:data:`repro.obs.manifest.ENDINGS`, plus the two exception-free ones)
on both ``python -m repro <figure>`` and ``python -m repro chaos
sweep``, each run with ``--resume`` so the manifest must also carry the
resume lineage.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.audit.session import AuditSession
from repro.chaos.cli import main as chaos_main
from repro.errors import StallError
from repro.experiments.cli import main as experiments_main
from repro.obs.manifest import validate_manifest

CLIS = {
    "experiments": (experiments_main, ["fig3"]),
    "chaos": (chaos_main, ["sweep", "--protocols", "tcp", "--profiles",
                           "blackhole", "--flows", "1", "--size", "15000"]),
}

#: The cell body each CLI's run reaches, where an exception is planted.
BODY = {"experiments": ("repro.experiments.fig03_example", "run"),
        "chaos": ("repro.chaos.sweep", "run_cell")}

#: ending -> (exit status, manifest outcome, interrupt_reason)
ENDINGS = {
    "ok": (0, "ok", None),
    "verdict": (1, "ok", None),
    "interrupt": (130, "interrupted", "KeyboardInterrupt"),
    "stall": (1, "interrupted", "StallError"),
    "error": (1, "error", "ProcFaultError"),
}


def _raising(exc):
    def body(*args, **kwargs):
        raise exc
    return body


def _argv(cli, ending, tmp_path, monkeypatch):
    argv = list(CLIS[cli][1])
    if ending == "verdict" and cli == "experiments":
        # A failing audit verdict.
        monkeypatch.setattr(AuditSession, "clean", property(lambda s: False))
        return argv + ["--audit", str(tmp_path / "audit")]
    if ending == "verdict":
        # A lost cell breaks the sweep's completeness verdict.
        return argv + ["--procfault", "raise@0", "--quarantine"]
    if ending == "error" and cli == "experiments":
        # A cell that raises in its pool worker.
        return ["fig6", "--scale", "0.02", "--jobs", "2",
                "--procfault", "raise@0"]
    if ending == "error":
        return argv + ["--procfault", "raise@0"]
    if ending in ("interrupt", "stall"):
        exc = (KeyboardInterrupt() if ending == "interrupt"
               else StallError(1.0, 100, []))
        module, name = BODY[cli]
        monkeypatch.setattr(importlib.import_module(module), name,
                            _raising(exc))
    return argv


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("cli", list(CLIS))
def test_every_ending_writes_one_valid_manifest(cli, ending, tmp_path,
                                                monkeypatch, capsys):
    argv = _argv(cli, ending, tmp_path, monkeypatch)
    manifest_path = tmp_path / "manifest.json"
    argv += ["--manifest", str(manifest_path),
             "--resume", str(tmp_path / "state")]

    status = CLIS[cli][0](argv)

    out, err = capsys.readouterr()
    code, outcome, reason = ENDINGS[ending]
    assert status == code, out + err
    doc = json.loads(manifest_path.read_text())
    assert validate_manifest(doc) == []
    assert (doc["exit_status"], doc["outcome"], doc["interrupt_reason"]) \
        == (code, outcome, reason)
    assert doc["supervisor"]["resume"]["journal"].endswith("cells.jsonl")
    assert "[scheduler tie-breaks:" in out
    if outcome == "ok":
        assert "[run manifest:" in out
        assert doc["result"]["fingerprint"]
    else:
        assert f"({outcome})]" in err
        assert doc["result"] is None
    if ending == "interrupt":
        assert "re-run with --resume to continue" in err


@pytest.mark.parametrize("cli", list(CLIS))
def test_closed_stdout_interrupts_the_run_quietly(cli, tmp_path):
    # The read end is closed before the child starts, so its first
    # write to stdout fails whatever the timing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    manifest_path = tmp_path / "manifest.json"
    args = ([] if cli == "experiments" else ["chaos"]) + CLIS[cli][1]
    src = Path(__file__).resolve().parents[2] / "src"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args,
             "--manifest", str(manifest_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr, done.stderr
    assert "(interrupted)]" in done.stderr
    doc = json.loads(manifest_path.read_text())
    assert validate_manifest(doc) == []
    assert (doc["exit_status"], doc["outcome"], doc["interrupt_reason"]) \
        == (1, "interrupted", "BrokenPipeError")


@pytest.mark.parametrize("cli", list(CLIS))
def test_closed_stderr_too_still_ends_the_run(cli, tmp_path, monkeypatch):
    # ``2>&1 | head``: the closing lines on stderr hit the closed pipe
    # as well, and must not raise out of the session.
    # Two descriptors on one pipe, as a shell's ``2>&1`` makes them.
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = open(write_end, "w", buffering=1)
    err = open(os.dup(write_end), "w", buffering=1)
    manifest_path = tmp_path / "manifest.json"
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    try:
        status = CLIS[cli][0](CLIS[cli][1]
                              + ["--manifest", str(manifest_path)])
    finally:
        monkeypatch.undo()
        out.close()
        err.close()
    assert status == 1
    doc = json.loads(manifest_path.read_text())
    assert validate_manifest(doc) == []
    assert (doc["exit_status"], doc["outcome"], doc["interrupt_reason"]) \
        == (1, "interrupted", "BrokenPipeError")


@pytest.mark.parametrize("cli", list(CLIS))
def test_a_broken_pipe_elsewhere_keeps_its_traceback(cli, tmp_path,
                                                     monkeypatch, capsys):
    # Both standard streams are fine: the pipe that broke is one the
    # run opened, and the traceback is all there is to say what it was.
    module, name = BODY[cli]
    monkeypatch.setattr(importlib.import_module(module), name,
                        _raising(BrokenPipeError()))
    status = CLIS[cli][0](CLIS[cli][1] + ["--no-manifest"])
    assert status == 1
    assert "Traceback" in capsys.readouterr().err


def test_no_manifest_ending_still_exits_by_the_table(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert chaos_main(CLIS["chaos"][1]
                      + ["--procfault", "raise@0", "--no-manifest"]) == 1
    assert "ProcFaultError" in capsys.readouterr().err
    assert not (tmp_path / "run_manifest.json").exists()


def test_a_killed_worker_ends_a_figure_once(tmp_path, capsys):
    # A figure never quarantines: the one crash charged to shard 1 ends
    # the run through the ending table.
    manifest_path = tmp_path / "manifest.json"
    status = experiments_main([
        "fig6", "--scale", "0.02", "--jobs", "2", "--procfault", "kill@1",
        "--heartbeat-timeout", "5", "--manifest", str(manifest_path)])
    assert status == 1
    err = capsys.readouterr().err
    assert "WorkerCrashError: shard 1 " in err
    doc = json.loads(manifest_path.read_text())
    assert validate_manifest(doc) == []
    assert (doc["exit_status"], doc["outcome"], doc["interrupt_reason"]) \
        == (1, "error", "WorkerCrashError")
    assert doc["supervisor"]["pool_respawns"] == 1
    assert doc["supervisor"]["quarantined"] == []


#: The option set each CLI exposed before the lifecycle was shared.
OPTIONS = {
    "experiments": (experiments_main, [], {
        "--audit", "--breakdown", "--chaos", "--heartbeat-timeout", "--help",
        "--jobs", "--manifest", "--no-manifest", "--procfault", "--resume",
        "--scale", "--seed", "--telemetry", "--telemetry-format",
        "--telemetry-kinds", "--timeline-flows", "--trace-viewer",
        "--trace-viewer-max"}),
    "chaos": (chaos_main, ["sweep"], {
        "--audit", "--breakdown", "--flows", "--heartbeat-timeout",
        "--help", "--jobs", "--json", "--manifest",
        "--no-manifest", "--procfault", "--profiles", "--protocols",
        "--quarantine", "--resume", "--seed", "--size"}),
}

SHARED = {"--manifest", "--no-manifest", "--heartbeat-timeout",
          "--procfault", "--resume"}


@pytest.mark.parametrize("cli", list(OPTIONS))
def test_help_lists_the_same_options(cli, capsys):
    main, argv, expected = OPTIONS[cli]
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    listed = set(re.findall(r"(?m)^  (?:-\w, )?(--[\w-]+)",
                            capsys.readouterr().out))
    assert listed == expected
    assert SHARED <= listed


@pytest.mark.parametrize("cli", list(CLIS))
def test_progress_is_not_an_option(cli, capsys):
    # The live progress plane is gone; a worker's liveness messages
    # reach the supervisor with no flag.
    main, argv = CLIS[cli]
    with pytest.raises(SystemExit) as ended:
        main(argv + ["--progress", "--no-manifest"])
    assert ended.value.code == 2
    assert "unrecognized arguments: --progress" in capsys.readouterr().err
