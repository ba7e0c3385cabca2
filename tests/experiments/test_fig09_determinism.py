"""Fig. 9 prints the same report in every interpreter.

Each access network's ``pair_id`` is derived from the run seed with
``derive_seed`` (SHA-256), not the per-process salted ``hash()``, so two
runs under different ``PYTHONHASHSEED`` values agree byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _fig9_stdout(hash_seed: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-m", "repro", "fig9", "--scale", "0.01",
         "--no-manifest"],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return "\n".join(line for line in done.stdout.splitlines()
                     if "finished in" not in line)


def test_fig9_report_is_independent_of_hash_seed(tmp_path):
    assert _fig9_stdout("1", tmp_path) == _fig9_stdout("2", tmp_path)
