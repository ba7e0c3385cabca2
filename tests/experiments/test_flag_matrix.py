"""Every pair of run-shaping CLI flags composes: no pair takes a rule.

One in-process ``main([...])`` per pair: ``fig3`` normally, ``fig6
--scale 0.05`` for the ``--jobs 2`` rows (fig3 has nothing to fan out).
"""

import itertools
import json
import re

import pytest

from repro.experiments.cli import main
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

    # No flag drops --jobs (no "[--jobs ...]" notice), and the
    # tie-break line, counting worker sims too, carries no caveat.
    assert "[--jobs" not in err
    assert re.search(r"^\[scheduler tie-breaks: \d+ same-timestamp "
                     r"group\(s\), max size \d+\]$", out, re.MULTILINE)
    if "trace_viewer" in pair:
        export = json.loads((tmp_path / "spans.json").read_text())
        # More than the lone process-name record an empty export holds.
        assert len(export["traceEvents"]) > 1


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_heartbeat_timeout_must_be_positive(value, capsys):
    with pytest.raises(SystemExit) as ended:
        main(["fig6", "--scale", "0.02", "--jobs", "2",
              "--heartbeat-timeout", value])
    assert ended.value.code == 2
    assert "invalid positive_seconds value" in capsys.readouterr().err
