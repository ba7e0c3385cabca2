"""Run manifests: every invocation traceable to how it was produced.

A figure in a paper repro is only as good as the record of how it was
made.  :class:`RunManifest` captures, for one ``python -m repro ...``
invocation: the command and parsed arguments, the master seed, a digest
of the effective configuration, the git revision, the interpreter and
platform, per-stage wall-clock, peak RSS, telemetry drop counters, and
the run's result fingerprint — then writes ``run_manifest.json``.

The schema is versioned (:data:`MANIFEST_SCHEMA_ID`) and validated by
:func:`validate_manifest`, a dependency-free structural checker CI uses
to gate every manifest artifact.  Wall-clock and RSS fields are
non-deterministic by nature and therefore excluded from result
fingerprints — the manifest *records* a run, it never feeds one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_ID",
    "RunManifest",
    "config_digest",
    "git_revision",
    "peak_rss_kb",
    "validate_manifest",
]

MANIFEST_SCHEMA_ID = "repro.obs.manifest/1"

#: JSON-schema-style description of the manifest document.  Kept a
#: plain dict (usable by ``jsonschema`` where installed) while
#: :func:`validate_manifest` enforces the same shape with no
#: dependencies at all.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "$id": MANIFEST_SCHEMA_ID,
    "type": "object",
    "required": ["schema", "command", "argv", "args", "python", "platform",
                 "started_at", "finished_at", "wall_s", "stages",
                 "peak_rss_kb", "exit_status", "outcome"],
    "properties": {
        "schema": {"const": MANIFEST_SCHEMA_ID},
        "command": {"type": "string"},
        "argv": {"type": "array", "items": {"type": "string"}},
        "args": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "config_digest": {"type": ["string", "null"]},
        "git": {
            "type": ["object", "null"],
            "required": ["revision", "dirty"],
            "properties": {
                "revision": {"type": "string"},
                "dirty": {"type": "boolean"},
            },
        },
        "python": {"type": "string"},
        "platform": {"type": "string"},
        "started_at": {"type": "string"},
        "finished_at": {"type": "string"},
        "wall_s": {"type": "number"},
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "wall_s"],
                "properties": {
                    "name": {"type": "string"},
                    "wall_s": {"type": "number"},
                },
            },
        },
        "peak_rss_kb": {"type": ["integer", "null"]},
        "telemetry": {
            "type": ["object", "null"],
            "required": ["dropped_records"],
            "properties": {
                "dropped_records": {"type": "integer"},
                "shards": {"type": "array"},
            },
        },
        "result": {
            "type": ["object", "null"],
            "required": ["fingerprint"],
            "properties": {"fingerprint": {"type": "string"}},
        },
        "scheduler": {
            "type": ["object", "null"],
            "required": ["tie_break_groups", "max_tie_group"],
            "properties": {
                "tie_break_groups": {"type": "integer"},
                "max_tie_group": {"type": "integer"},
            },
        },
        "trace_viewer": {
            "type": ["object", "null"],
            "required": ["path", "events", "truncated", "max_events"],
            "properties": {
                "path": {"type": "string"},
                "events": {"type": "integer"},
                "truncated": {"type": "boolean"},
                "max_events": {"type": "integer"},
            },
        },
        #: What was observing / steering the run (the ambient run
        #: context at its start); an absent key means off.
        "observers": {
            "type": ["object", "null"],
            "properties": {
                "telemetry": {
                    "type": "object",
                    "required": ["dir", "format", "kinds"],
                    "properties": {
                        "dir": {"type": "string"},
                        "format": {"type": "string"},
                        "kinds": {"type": ["string", "null"]},
                    },
                },
                "audit": {"type": "boolean"},
                "breakdown": {"type": "boolean"},
                "provenance": {"type": "boolean"},
                "chaos": {"type": "string"},
                "procfault": {"type": "string"},
                "progress": {"type": ["string", "boolean"]},
                "tiebreak_salt": {"type": "integer"},
            },
        },
        "exit_status": {"type": "integer"},
        #: How the run ended: "ok", "error", or "interrupted" (the run
        #: was cut short — KeyboardInterrupt, stall — but the manifest
        #: was still written so the artifact trail has no holes).
        "outcome": {"type": "string"},
        "interrupt_reason": {"type": ["string", "null"]},
        "supervisor": {
            "type": ["object", "null"],
            "required": ["shards", "attempts", "retries", "hedges",
                         "hedges_won", "reaped", "pool_respawns",
                         "replayed", "quarantined"],
            "properties": {
                "shards": {"type": "integer"},
                "attempts": {"type": "integer"},
                "retries": {"type": "integer"},
                "hedges": {"type": "integer"},
                "hedges_won": {"type": "integer"},
                "reaped": {"type": "integer"},
                "pool_respawns": {"type": "integer"},
                "replayed": {"type": "integer"},
                "quarantined": {"type": "array"},
                "resume": {
                    "type": ["object", "null"],
                    "required": ["journal", "journal_digest"],
                    "properties": {
                        "journal": {"type": "string"},
                        "journal_digest": {"type": ["string", "null"]},
                        "cells_replayed": {"type": "integer"},
                    },
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check(doc: Any, schema: Dict[str, Any], path: str,
           errors: List[str]) -> None:
    """Minimal structural validator for the schema subset used above."""
    if "const" in schema:
        if doc != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, "
                          f"got {doc!r}")
        return
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](doc) for t in allowed):
            errors.append(f"{path}: expected {'/'.join(allowed)}, "
                          f"got {type(doc).__name__}")
            return
        if doc is None and "null" in allowed:
            return
    if isinstance(doc, dict):
        for key in schema.get("required", []):
            if key not in doc:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                _check(doc[key], sub, f"{path}.{key}", errors)
    elif isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            _check(item, schema["items"], f"{path}[{i}]", errors)


def validate_manifest(doc: Any) -> List[str]:
    """Validate ``doc`` against :data:`MANIFEST_SCHEMA`; returns a list
    of human-readable problems (empty when valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"manifest must be an object, got {type(doc).__name__}"]
    _check(doc, MANIFEST_SCHEMA, "manifest", errors)
    return errors


# ----------------------------------------------------------------------
# Environment probes
# ----------------------------------------------------------------------


def git_revision(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """``{"revision", "dirty"}`` for the working tree, or None outside a
    repository / without git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5)
        if rev.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=5)
        return {
            "revision": rev.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0
                     else False,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None where the
    resource module is unavailable, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def config_digest(config: Any) -> str:
    """SHA-256 over the canonical JSON of a configuration object.

    Accepts dicts or anything with ``__dict__``/dataclass fields;
    non-JSON values are stringified, so the digest is stable for any
    config shape."""
    if hasattr(config, "__dataclass_fields__"):
        import dataclasses

        doc = dataclasses.asdict(config)
    elif isinstance(config, dict):
        doc = config
    else:
        doc = vars(config)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _utc(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


# ----------------------------------------------------------------------
# The manifest builder
# ----------------------------------------------------------------------


class RunManifest:
    """Builds and writes one run's ``run_manifest.json``.

    ::

        manifest = RunManifest("fig12", args=vars(cli_args), seed=42)
        with manifest.stage("fig12"):
            result = fig12.run(...)
        manifest.set_result_fingerprint(sha256_of_report)
        manifest.write("run_manifest.json")
    """

    def __init__(self, command: str, args: Optional[Dict[str, Any]] = None,
                 seed: Optional[int] = None,
                 argv: Optional[List[str]] = None) -> None:
        self.command = command
        self.args = dict(args) if args else {}
        self.seed = seed
        self.argv = list(argv) if argv is not None else list(sys.argv)
        self._started = time.time()
        self._started_mono = time.perf_counter()
        self.stages: List[Dict[str, Any]] = []
        self.config_digest: Optional[str] = None
        self.telemetry: Optional[Dict[str, Any]] = None
        self.result: Optional[Dict[str, Any]] = None
        self.scheduler: Optional[Dict[str, Any]] = None
        self.trace_viewer: Optional[Dict[str, Any]] = None
        self.supervisor: Optional[Dict[str, Any]] = None
        self.observers: Optional[Dict[str, Any]] = None
        self.exit_status = 0
        self.outcome = "ok"
        self.interrupt_reason: Optional[str] = None
        self._git = git_revision()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Record one named stage's wall-clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages.append({
                "name": name,
                "wall_s": round(time.perf_counter() - started, 6),
            })

    def record_config(self, config: Any) -> str:
        """Digest the effective configuration into the manifest."""
        self.config_digest = config_digest(config)
        return self.config_digest

    def record_telemetry(self, dropped_records: int,
                         shards: Optional[List[Dict[str, Any]]] = None
                         ) -> None:
        """Record trace drop counters (parent hub plus optional
        per-shard worker summaries)."""
        self.telemetry = {"dropped_records": int(dropped_records)}
        if shards is not None:
            self.telemetry["shards"] = shards

    def record_scheduler(self, tie_break_groups: int,
                         max_tie_group: int) -> None:
        """Record the run's tie-break exposure: how many same-timestamp
        event groups the scheduler resolved (and the largest one) — the
        surface the happens-before analysis (:mod:`repro.hb`) audits."""
        self.scheduler = {
            "tie_break_groups": int(tie_break_groups),
            "max_tie_group": int(max_tie_group),
        }

    def record_trace_viewer(self, path: str, events: int, truncated: bool,
                            max_events: int) -> None:
        """Record a ``--trace-viewer`` export (including whether the
        event cap truncated it) so the fact survives outside the JSON
        artifact itself."""
        self.trace_viewer = {
            "path": str(path),
            "events": int(events),
            "truncated": bool(truncated),
            "max_events": int(max_events),
        }

    def set_result_fingerprint(self, fingerprint: str,
                               **extra: Any) -> None:
        """Attach the run's deterministic result fingerprint."""
        self.result = {"fingerprint": fingerprint, **extra}

    def record_supervisor(self, stats: Dict[str, Any],
                          resume: Optional[Dict[str, Any]] = None) -> None:
        """Record shard-supervision provenance: attempts, retries,
        hedges won, reaped workers, pool respawns, quarantined cells —
        plus resume lineage (the journal and its content digest) when
        the run replayed a previous run's cells.

        A run that never fanned out (no shards, no resume lineage) has
        nothing to supervise and keeps the section null, so seed-style
        in-process runs gain no manifest noise."""
        if not stats.get("shards") and not stats.get("replayed") \
                and resume is None:
            return
        self.supervisor = dict(stats)
        if resume is not None:
            self.supervisor["resume"] = dict(resume)

    def record_observers(self, observers: Dict[str, Any]) -> None:
        """Record what the run context says is observing the run
        (:func:`repro.telemetry.context.describe`); a run with nothing
        on keeps the section null."""
        self.observers = dict(observers) or None

    def set_exit_status(self, status: int) -> None:
        """Record the process exit status the run is about to return."""
        self.exit_status = int(status)

    def set_outcome(self, outcome: str,
                    reason: Optional[str] = None) -> None:
        """Record how the run ended: ``ok``, ``error``, or
        ``interrupted`` (with the interrupting cause as ``reason``)."""
        self.outcome = str(outcome)
        if reason is not None:
            self.interrupt_reason = str(reason)

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The schema-valid manifest document (finalized now)."""
        finished = time.time()
        args = {}
        for key, value in sorted(self.args.items()):
            if isinstance(value, (str, int, float, bool)) or value is None:
                args[key] = value
            else:
                args[key] = str(value)
        return {
            "schema": MANIFEST_SCHEMA_ID,
            "command": self.command,
            "argv": self.argv,
            "args": args,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "git": self._git,
            "python": "{}.{}.{} ({})".format(
                *sys.version_info[:3], platform.python_implementation()),
            "platform": platform.platform(),
            "started_at": _utc(self._started),
            "finished_at": _utc(finished),
            "wall_s": round(time.perf_counter() - self._started_mono, 6),
            "stages": list(self.stages),
            "peak_rss_kb": peak_rss_kb(),
            "telemetry": self.telemetry,
            "result": self.result,
            "scheduler": self.scheduler,
            "trace_viewer": self.trace_viewer,
            "supervisor": self.supervisor,
            "observers": self.observers,
            "exit_status": self.exit_status,
            "outcome": self.outcome,
            "interrupt_reason": self.interrupt_reason,
        }

    def write(self, path: str = "run_manifest.json") -> str:
        """Finalize, self-validate, and write the manifest; returns the
        path written."""
        doc = self.to_dict()
        problems = validate_manifest(doc)
        if problems:  # pragma: no cover - internal invariant
            raise ValueError("invalid manifest: " + "; ".join(problems))
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        from repro.obs.atomicio import atomic_write_text

        # Atomic publication: an interrupted-run manifest may be written
        # from an except handler while a resume tool is already polling
        # the path; it must never observe half a document.
        return atomic_write_text(
            path, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def fingerprintable(self) -> str:
        """Canonical JSON of the *deterministic* manifest subset (no
        wall-clock, RSS, or timestamps) — what reproducibility checks
        may compare across runs."""
        from repro.obs.sketch import canonical_json

        doc = self.to_dict()
        for key in ("started_at", "finished_at", "wall_s", "peak_rss_kb",
                    "stages", "git", "platform", "python",
                    # Supervision is scheduling, not results: how many
                    # retries a run needed depends on injected faults
                    # and machine weather, never on what it computed.
                    # Likewise who watched: observers must not change
                    # what they observe.
                    "supervisor", "observers", "interrupt_reason"):
            doc.pop(key, None)
        return canonical_json(doc)
