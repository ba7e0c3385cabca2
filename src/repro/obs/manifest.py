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

:class:`RunSession` is the run lifecycle that produces the manifest —
the one both sweep CLIs (``experiments`` and ``chaos sweep``) enter —
and :func:`add_run_flags` the flags it reads.  It lives here because a
default ``python -m repro fig3`` imports this module anyway.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import StallError

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_ID",
    "RunManifest",
    "RunSession",
    "add_run_flags",
    "config_digest",
    "git_revision",
    "peak_rss_kb",
    "positive_finite",
    "positive_int",
    "positive_seconds",
    "procfault_spec",
    "validate_manifest",
]

MANIFEST_SCHEMA_ID = "repro.obs.manifest/4"

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
            "required": ["shards", "reaped", "pool_respawns", "replayed",
                         "quarantined"],
            "properties": {
                "shards": {"type": "integer"},
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
        surface schedule perturbation (:mod:`repro.hb.perturb`)
        permutes."""
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
        """Record shard-supervision provenance: shards, reaped
        workers, pool respawns, quarantined cells —
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
                    # workers a run reaped or respawned depends on
                    # injected faults and machine weather, never on
                    # what it computed.
                    # Likewise who watched: observers must not change
                    # what they observe.
                    "supervisor", "observers", "interrupt_reason"):
            doc.pop(key, None)
        return canonical_json(doc)


# ----------------------------------------------------------------------
# The run lifecycle
# ----------------------------------------------------------------------

#: How a run ends when an exception escapes it: the first row whose type
#: matches gives the exit status and the manifest outcome, and the
#: exception's type name is the reason.  A run that ends without one
#: exits with :attr:`RunSession.status` (the CLI's verdict), outcome
#: ``ok``.  Anything else (``SystemExit`` ...) is not a run ending and
#: propagates untouched.  A closed standard stream (``... | head``)
#: interrupts the run: nothing is left to read what it prints, so no
#: traceback either (one is printed when the broken pipe was not a
#: standard stream).
ENDINGS = (
    (KeyboardInterrupt, 130, "interrupted"),
    (StallError, 1, "interrupted"),
    (BrokenPipeError, 1, "interrupted"),
    (Exception, 1, "error"),
)


def _silence_closed_streams() -> bool:
    """Point every standard stream nobody reads any more (``| head``,
    ``2>&1 | head``) at ``os.devnull``, so what is left to print to it
    goes nowhere, the interpreter's final flush included.  False when
    none was closed: the broken pipe was another one."""
    import select

    closed = False
    for stream in (sys.stdout, sys.stderr):
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            continue
        poller = select.poll()
        poller.register(fd, select.POLLOUT)
        if any(mask & (select.POLLERR | select.POLLHUP)
               for _, mask in poller.poll(0)):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
            closed = True
    return closed


def positive_seconds(text: str) -> float:
    """argparse type: a duration in seconds, greater than zero."""
    value = float(text)
    if not value > 0:  # NaN too: argparse reports a usage error
        raise ValueError(text)
    return value


def positive_finite(text: str) -> float:
    """argparse type: a factor greater than zero and finite."""
    value = float(text)
    if not 0 < value < float("inf"):  # NaN too
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """argparse type: a count, greater than zero."""
    value = int(text)
    if value <= 0:
        raise ValueError(text)
    return value


def procfault_spec(text: str) -> str:
    """argparse type: a ``--procfault`` spec that parses.  The text is
    kept, since each fan-out worker parses it again."""
    from repro.chaos.procfault import parse_procfault
    from repro.errors import ChaosError

    try:
        parse_procfault(text)
    except ChaosError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def add_run_flags(parser) -> None:
    """Add the flags :class:`RunSession` reads to an argparse parser."""
    parser.add_argument("--progress", nargs="?", const="-", default=None,
                        metavar="DIR",
                        help="live multi-shard progress plane (refreshing "
                             "status on stderr); with DIR also exports "
                             "progress.prom (Prometheus text) and "
                             "progress.jsonl snapshots there")
    parser.add_argument("--manifest", default="run_manifest.json",
                        metavar="PATH",
                        help="where to write the run manifest "
                             "(default: run_manifest.json)")
    parser.add_argument("--no-manifest", action="store_true",
                        help="skip writing the run manifest")
    parser.add_argument("--heartbeat-timeout", type=positive_seconds,
                        default=None,
                        metavar="SECONDS",
                        help="reap (SIGKILL) a fan-out worker after this "
                             "many seconds of heartbeat silence; its cell "
                             "fails (default: never)")
    parser.add_argument("--procfault", type=procfault_spec, default=None,
                        metavar="SPEC",
                        help="inject harness process faults into the "
                             "fan-out, e.g. 'kill@1,hang@2/20,raise@3,"
                             "kill%%10,seed=7' (deterministic; exercises "
                             "the shard supervisor)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="journal completed sweep cells to "
                             "DIR/cells.jsonl and replay any already "
                             "recorded there; an interrupted run resumes "
                             "with an identical final result")


class RunSession:
    """One CLI run, start to finish, ending in one manifest.

    ::

        with RunSession("chaos:sweep", args, config) as run:
            with run.stage("sweep"):
                report = run_sweep(...)
            print(report.format_report())
            run.record_result(report.fingerprint)
            run.status = 0 if report.live else 1
        return run.status

    Construction creates the :class:`RunManifest` (unless
    ``args.no_manifest``) and digests ``config``.  Entry declares, through
    the ambient run context, the supervision policy
    (``args.heartbeat_timeout`` and ``quarantine``, which only ``chaos
    sweep`` sets), the ``--resume`` cell journal, the ``--progress``
    plane and the ``WorkerEnv`` (``args.procfault`` plus the ``env`` fields), then
    zeroes the tie-break and supervision accumulators.  Exit leaves those
    scopes (closing the journal), applies :data:`ENDINGS`, prints the
    tie-break and supervisor lines, and writes the manifest with every
    section recorded; the exception is then swallowed and
    :attr:`status` is the process exit code.
    """

    def __init__(self, command: str, args: Any, config: Dict[str, Any], *,
                 env: Optional[Dict[str, Any]] = None,
                 quarantine: bool = False) -> None:
        self.args = args
        #: Exit code; the CLI sets 1 when its own verdict fails.
        self.status = 0
        #: What the worker env entered: telemetry hub, chaos profile.
        self.hub = self.profile = None
        self.manifest: Optional[RunManifest] = None
        if not args.no_manifest:
            self.manifest = RunManifest(command, args=vars(args),
                                        seed=args.seed)
            self.manifest.record_config(config)
        self._env = dict(env or {}, procfault_spec=args.procfault)
        self._quarantine = quarantine
        self._journal = self._lineage = None

    def __enter__(self) -> "RunSession":
        from repro.sim.simulator import reset_tie_break_stats
        from repro.telemetry import context

        args = self.args
        with ExitStack() as stack:
            # The policy's fields: ``fanout_map`` builds the policy, so
            # a run that never fans out never imports repro.parallel.
            stack.enter_context(context.scope(policy=dict(
                heartbeat_timeout=args.heartbeat_timeout,
                quarantine=self._quarantine)))
            if args.resume is not None:
                from repro.parallel import CellJournal, journaling

                self._journal = CellJournal(args.resume)
                # Lineage is the journal *being resumed*: digest it
                # before this run appends to it.
                self._lineage = {"journal": self._journal.path,
                                 "journal_digest": self._journal.file_digest()}
                stack.enter_context(journaling(self._journal))
            if args.progress is not None:
                from repro.obs import progress

                stack.enter_context(progress.plane(
                    out_dir=None if args.progress == "-" else args.progress))
            if any(self._env.get(key) is not None for key in
                   ("telemetry_dir", "chaos_spec", "procfault_spec")):
                from repro.parallel import WorkerEnv

                # Every pool worker re-enters the same env (its telemetry
                # files shard-suffixed).
                self.hub, self.profile = WorkerEnv(**self._env).enter(stack)
            self._stack = stack.pop_all()
        reset_tie_break_stats()
        context.enter(fanout=None)
        return self

    def stage(self, name: str):
        """Time one named stage into the manifest, recording what is
        observing the run as it starts (the CLI's own sessions — audit,
        breakdown — are entered by then)."""
        if self.manifest is None:
            return nullcontext()
        from repro.telemetry.context import describe

        self.manifest.record_observers(describe())
        return self.manifest.stage(name)

    def record_result(self, fingerprint: str, **extra: Any) -> None:
        """The run's deterministic result fingerprint."""
        if self.manifest is not None:
            self.manifest.set_result_fingerprint(fingerprint, **extra)

    def record_telemetry(self, shards: List[Dict[str, Any]]) -> None:
        """The hub's trace drop counter plus per-shard worker ones."""
        if self.manifest is not None:
            self.manifest.record_telemetry(self.hub.dropped_records,
                                           shards=shards)

    def record_trace_viewer(self, path: str, export: Any) -> None:
        """A ``--trace-viewer`` export (events, truncation, cap)."""
        if self.manifest is not None:
            self.manifest.record_trace_viewer(path, export.events,
                                              export.truncated,
                                              export.max_events)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.__exit__(exc_type, exc, tb)
        outcome = "ok"
        reason = None
        if exc_type is not None:
            ending = next((row for row in ENDINGS
                           if issubclass(exc_type, row[0])), None)
            if ending is None:
                return False
            _, self.status, outcome = ending
            reason = exc_type.__name__
            if issubclass(exc_type, KeyboardInterrupt):
                print("\ninterrupted — " + (
                    f"completed cells journaled to {self._journal.path}; "
                    "re-run with --resume to continue"
                    if self._journal is not None else
                    "use --resume DIR to make the run resumable"),
                    file=sys.stderr)
            elif not (issubclass(exc_type, BrokenPipeError)
                      and _silence_closed_streams()):
                import traceback

                traceback.print_exception(exc_type, exc, tb)
        from repro.sim.simulator import tie_break_stats
        from repro.telemetry import context

        ties = tie_break_stats()
        print(f"[scheduler tie-breaks: {ties['groups']} same-timestamp "
              f"group(s), max size {ties['max_group']}]")
        stats: Dict[str, Any] = {}
        if context.ambient.fanout is not None or self._journal is not None:
            from repro.parallel import fanout_stats

            stats = fanout_stats()
        if any(stats.get(key) for key in ("reaped", "pool_respawns",
                                          "replayed")):
            print(f"[supervisor: {stats['reaped']} reaped, "
                  f"{stats['pool_respawns']} pool respawns, "
                  f"{stats['replayed']} cells replayed from journal]")
        manifest = self.manifest
        if manifest is not None:
            manifest.record_scheduler(ties["groups"], ties["max_group"])
            manifest.record_supervisor(stats, resume=self._lineage)
            manifest.set_outcome(outcome, reason)
            manifest.set_exit_status(self.status)
            path = manifest.write(self.args.manifest)
            if outcome == "ok":
                print(f"[run manifest: {path}]")
            else:
                print(f"[run manifest: {path} ({outcome})]", file=sys.stderr)
        return True
