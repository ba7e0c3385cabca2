"""Every pair of run-shaping CLI flags either composes or takes a tabled
rule (ROADMAP item 5).

One in-process ``main([...])`` per pair: ``fig3`` normally, ``fig6
--scale 0.05`` for the ``--jobs 2`` rows (fig3 has nothing to fan out).
The rule table is the CLI's own :data:`IN_PROCESS_RULES`.
"""

import itertools
import json

import pytest

from repro.experiments.cli import IN_PROCESS_RULES, main
from repro.obs.manifest import validate_manifest

#: flag name (its argparse dest) -> the argv it contributes.
FLAGS = {
    "telemetry": lambda tmp: ["--telemetry", str(tmp / "telemetry")],
    "audit": lambda tmp: ["--audit", str(tmp / "audit")],
    "chaos": lambda tmp: ["--chaos", "wifi-bursty"],
    "breakdown": lambda tmp: ["--breakdown"],
    "trace_viewer": lambda tmp: ["--trace-viewer", str(tmp / "spans.json")],
    "progress": lambda tmp: ["--progress"],
    "resume": lambda tmp: ["--resume", str(tmp / "state")],
    "procfault": lambda tmp: ["--procfault", "raise@0", "--retries", "2"],
    "jobs": lambda tmp: ["--jobs", "2"],
}

#: flag -> the key it must leave in the manifest's ``observers`` section
#: (``--resume`` and ``--jobs`` shape the fan-out, they observe nothing).
OBSERVER_KEY = {"telemetry": "telemetry", "audit": "audit", "chaos": "chaos",
                "breakdown": "breakdown", "trace_viewer": "breakdown",
                "progress": "progress", "procfault": "procfault"}

RULES = dict(IN_PROCESS_RULES)


@pytest.mark.parametrize(
    "pair", list(itertools.combinations(FLAGS, 2)), ids="+".join)
def test_flag_pair_composes_or_takes_its_rule(pair, tmp_path, capsys):
    target = (["fig6", "--scale", "0.05"] if "jobs" in pair else ["fig3"])
    manifest_path = tmp_path / "manifest.json"
    argv = target + ["--seed", "7", "--manifest", str(manifest_path)]
    for flag in pair:
        argv += FLAGS[flag](tmp_path)

    assert main(argv) == 0
    out, err = capsys.readouterr()

    manifest = json.loads(manifest_path.read_text())
    assert validate_manifest(manifest) == []
    assert manifest["outcome"] == "ok"
    observers = manifest["observers"] or {}
    assert {OBSERVER_KEY[f] for f in pair if f in OBSERVER_KEY} \
        <= set(observers)
    if "audit" in pair:
        assert "all invariants hold" in out

    ruled = [flag for flag in pair if flag in RULES] if "jobs" in pair else []
    for flag in ruled:
        assert RULES[flag] in err
    if not ruled:
        assert "--jobs ignored" not in err
    # The tie-break line owns up to sims it could not see in workers.
    assert ("in-process sims only" in out) == ("jobs" in pair and not ruled)
    if "trace_viewer" in pair:
        export = json.loads((tmp_path / "spans.json").read_text())
        # More than the lone process-name record an empty export holds.
        assert len(export["traceEvents"]) > 1


def test_every_rule_names_a_real_flag():
    assert set(RULES) <= set(FLAGS)
