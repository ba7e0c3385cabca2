"""Cold start: importing a ``repro`` submodule costs that submodule only.

Package ``__init__`` files are lazy facades (``repro._lazy``), so the
import counts here are taken in fresh interpreters (``sys.modules`` of
the test process is long since warm); the facade-parity checks run
in-process.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]

#: What an un-instrumented run must never pay for.
PLANES = (
    "repro.audit", "repro.hb", "repro.obs.spans", "repro.obs.critical",
    "repro.obs.traceviewer", "repro.obs.sketch",
    "repro.telemetry.hub", "repro.telemetry.export",
    "repro.telemetry.profiling", "repro.telemetry.timeline",
    "repro.chaos.impairments", "repro.parallel.supervisor",
    "concurrent.futures", "multiprocessing",
)

_REPORT = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.') "
    "or m in ('concurrent.futures', 'multiprocessing'))))"
)


def run_cold(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run([sys.executable, "-c", code], cwd=str(cwd),
                          env=env, capture_output=True, text=True,
                          timeout=300)


def cold_modules(code: str, cwd: Path) -> list:
    """Run ``code`` in a fresh interpreter; the ``repro`` modules (and
    pool machinery) loaded when it finishes."""
    done = run_cold(code + "; " + _REPORT, cwd)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cold_main(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    return run_cold("import sys; from repro.experiments.cli import main; "
                    f"sys.exit(main({argv!r}))", cwd)


class TestImportCounts:
    def test_cli_import_loads_the_cli_only(self, tmp_path):
        modules = cold_modules("import repro.experiments.cli", tmp_path)
        assert len(modules) <= 8, modules

    def test_plain_fig3_loads_no_plane(self, tmp_path):
        modules = cold_modules(
            "from repro.experiments.cli import main; "
            "assert main(['fig3', '--no-manifest']) == 0", tmp_path)
        loaded = [m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in PLANES)]
        assert loaded == []

    def test_default_fig3_module_budget(self, tmp_path):
        # What a user types: the manifest is written (into cwd).
        modules = cold_modules(
            "from repro.experiments.cli import main; "
            "assert main(['fig3']) == 0", tmp_path)
        assert (tmp_path / "run_manifest.json").exists()
        assert "repro.obs.sketch" not in modules
        assert len([m for m in modules if m.startswith("repro")]) <= 45

    def test_serial_fanout_loads_no_pool(self, tmp_path):
        modules = cold_modules(
            "from repro.parallel import fanout_map; "
            "assert fanout_map(abs, [-1, 2, -3]) == [1, 2, 3]", tmp_path)
        assert "repro.parallel.supervisor" not in modules
        assert "concurrent.futures" not in modules
        assert "multiprocessing" not in modules


class TestPlanesStillLoadFromCold:
    def test_audit(self, tmp_path):
        done = cold_main(["fig3", "--no-manifest", "--audit",
                          str(tmp_path / "audit")], tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "all invariants hold" in done.stdout

    def test_breakdown(self, tmp_path):
        done = cold_main(["fig3", "--no-manifest", "--breakdown"], tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "FCT attribution (time in component)" in done.stdout

    def test_jobs(self, tmp_path):
        done = cold_main(["fig6", "--scale", "0.02", "--no-manifest",
                          "--jobs", "2"], tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "[fig6 finished in" in done.stdout


def _packages():
    yield repro
    for info in pkgutil.iter_modules(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()),
                         ids=lambda package: package.__name__)
def test_facade_parity(package):
    assert len(package.__all__) == len(set(package.__all__))
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        assert getattr(package, name) is not None
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("first", ["package", "submodule"])
@pytest.mark.parametrize("package,name", [("repro.audit", "replay"),
                                          ("repro.hb", "perturb")])
def test_colliding_exports_stay_callable(package, name, first, tmp_path):
    """``repro.audit.replay`` / ``repro.hb.perturb`` name both a function
    and the submodule defining it: the function must win whichever is
    imported first."""
    imports = [f"import {package}", f"import {package}.{name}"]
    if first == "submodule":
        imports.reverse()
    done = run_cold(
        f"{imports[0]}; import {package} as p; assert callable(p.{name}); "
        f"{imports[1]}; assert callable(p.{name}); "
        f"from {package} import {name}; assert callable({name})", tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
