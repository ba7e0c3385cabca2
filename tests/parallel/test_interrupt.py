"""A Ctrl-C'd ``--jobs`` run takes its pool workers down with it.

A real SIGINT goes to the whole foreground process group, parent and
workers alike.  The parent must exit 130 and leave no member of its
group behind: a worker that outlives it keeps finishing cells nobody
will read and holds the run's stdout pipe open, so a reader of that
pipe hangs.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _group_members(pgid):
    """Pids whose process group is ``pgid`` (from ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _group_gone(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def test_sigint_leaves_no_worker_behind(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # File-backed output: a surviving worker would hold a pipe open.
    with open(tmp_path / "out.txt", "w") as out, \
            open(tmp_path / "err.txt", "w") as err:
        proc = subprocess.Popen(
            # Scale 1.0: a fan-out of a few seconds even on a quiet
            # 2-vCPU box (scale 0.5 ends there ~1.2 s after start, so
            # the signal below could land after the run), so the
            # signal lands mid-fan-out.
            [sys.executable, "-m", "repro", "fig6", "--scale", "1.0",
             "--jobs", "2", "--no-manifest"],
            cwd=tmp_path, env=env, stdout=out, stderr=err,
            start_new_session=True,
            # A background job inherits SIGINT ignored; a terminal's
            # foreground run does not.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    pgid = proc.pid
    try:
        # Pool workers exist once the first shards are submitted.
        assert _wait_for(lambda: len(_group_members(pgid)) > 1, 60), \
            "the run never started its pool"
        time.sleep(1.0)
        os.killpg(pgid, signal.SIGINT)
        assert proc.wait(timeout=30) == 130, \
            (tmp_path / "err.txt").read_text()
        assert _wait_for(lambda: _group_gone(pgid), 5.0), \
            f"survivors: {_group_members(pgid)}"
    finally:
        if not _group_gone(pgid):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait(timeout=10)
