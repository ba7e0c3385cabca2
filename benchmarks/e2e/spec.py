"""``BENCHMARK.json`` is the one list of workloads, metric names, units
and bounds; everything else reads it through here.  Imports nothing of
the program, so the runner process stays out of the measurement."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

__all__ = ["REPO_ROOT", "OUT_DIR", "load", "names", "child_env"]

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Results, trace files and the cold-CLI scratch directories (ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


def load() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def names(section: List[dict]) -> List[str]:
    """Names of one ``BENCHMARK.json`` list, in file order."""
    return [entry["name"] for entry in section]


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's ``src`` (the program) and root (this package) importable."""
    env = dict(os.environ)
    extra = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    return env
