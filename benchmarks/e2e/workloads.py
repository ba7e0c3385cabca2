"""The five workloads: seeded inputs, the untraced run, the traced run.

Each in-process workload is a :class:`Workload` of three functions used
by :mod:`.child`:

* ``inputs(seed)`` builds the generated inputs (``PathSpec`` lists or
  arrival schedules) — the program only ever sees these;
* ``run(inputs, seed)`` is the timed section of an untraced pass: plain
  calls to the public entry points (``run_single_path_flow``,
  ``run_workload``) with nothing installed;
* ``trace(inputs, seed, ledger)`` does the same work decomposed into the
  entry point's public pieces with a span around each, under a
  :class:`~.ledger.LedgerProfiler` and the ``Host`` boundary wrappers.
  Its result digest must equal the untraced one, which is the
  decomposed-vs-undecomposed equality check.

Sizes are fixed per workload (not scaled by ``--seconds``) so event
counts, retransmission counts and digests compare exactly between two
commits; the runner repeats whole passes to fill the measuring time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional

from repro.audit import AuditSession
from repro.experiments.runner import TrafficRunner, launch_flow
from repro.experiments.scenarios import (EMULAB, build_emulab,
                                         run_single_path_flow, run_workload,
                                         short_flow_schedule)
from repro.obs.aggregate import FlowStats
from repro.obs.critical import BreakdownSession
from repro.obs.manifest import validate_manifest
from repro.planetlab.paths import PathPopulation, build_path
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.telemetry.context import activated
from repro.transport.config import TransportConfig
from repro.workloads.arrivals import rate_for_utilization

from .ledger import LedgerHub, LedgerProfiler, SpanLedger, host_boundaries
from .spec import child_env

__all__ = ["WORKLOADS", "Workload", "Outcome", "run_cold_cli",
           "import_probe", "clean_paths", "warm_up", "fingerprint", "MB"]

#: ``ru_maxrss`` is in KiB on Linux.
MB = 1024.0

#: Protocol-major order of every path workload: the baseline, the
#: aggressive start-up without ROPR, and the paper's scheme.
PATH_PROTOCOLS = ("tcp", "jumpstart", "halfback")
#: Fig. 12 shape: the safe baseline against Halfback below, at and
#: above Halfback's comfortable load.
SWEEP_PROTOCOLS = ("tcp", "halfback")
SWEEP_UTILIZATIONS = (0.2, 0.5, 0.8)
SWEEP_DURATION = 15.0
SWEEP_DRAIN = 10.0
SWEEP_PAIRS = 8

#: The paper's short flow (100 KB), for every flow of every workload.
FLOW_BYTES = 100_000
#: Paths per pass (each runs once per protocol), sized so one timed
#: pass lasts 3-5 s on the 2-core sandbox.
CLEAN_PATHS = 400
LOSSY_PATHS = 300
OBSERVED_PATHS = 30
#: Residual loss forced on every ``paths_lossy`` path (forward; the
#: reverse direction gets a quarter of it through ``build_path``).
LOSSY_RATE = 0.03
COLD_PROCESSES = 25
COLD_IMPORT_PROBES = 5
COLD_IMPORT = "import repro.experiments.cli"

#: Root span of a traced pass; its duration is the traced wall.
ROOT = "workload"

#: One pass's result: ``attempted``/``failed`` operations, ``digest`` of
#: the simulated results, ``consistent`` (internal equality checks) and,
#: for traced passes, ``layers``.
Outcome = Dict[str, object]


@dataclasses.dataclass(frozen=True)
class Workload:
    """An in-process workload (see module docstring)."""

    inputs: Callable[[int], object]
    run: Callable[[object, int], Outcome]
    trace: Callable[[object, int, SpanLedger], Outcome]
    #: Per-layer metric that the time spent in ``inputs`` reports as.
    input_metric: Optional[str] = None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _population(seed: int, n: int) -> list:
    return PathPopulation(n_pairs=n, seed=seed).paths


def clean_paths(seed: int, n: int = CLEAN_PATHS) -> list:
    """Loss-free paths: stock "lossless" paths still overflow small
    buffers under an aggressive start-up, so buffers are raised to hold
    two whole flows."""
    return [dataclasses.replace(
                spec, loss_rate=0.0,
                buffer_bytes=max(spec.buffer_bytes, 2 * FLOW_BYTES))
            for spec in _population(seed, n)]


def warm_up(seed: int) -> None:
    """One clean flow per protocol, outside any timed section."""
    _run_paths(clean_paths(seed, 1), seed)


def _lossy_paths(seed: int) -> list:
    return [dataclasses.replace(spec, loss_rate=LOSSY_RATE)
            for spec in _population(seed, LOSSY_PATHS)]


def _observed_paths(seed: int) -> list:
    return _population(seed, OBSERVED_PATHS)


def _sweep_schedules(seed: int) -> list:
    """One ``(protocol, schedule)`` per sweep point.  Arrivals are the
    program's own Poisson draw, cut to the expected number of flows: a
    point's cost follows its flow count, so leaving the count to the
    draw made ``wall_s`` swing 9 % from seed to seed."""
    points = []
    for protocol in SWEEP_PROTOCOLS:
        for utilization in SWEEP_UTILIZATIONS:
            flows = round(SWEEP_DURATION * rate_for_utilization(
                utilization, EMULAB.bottleneck_rate, FLOW_BYTES))
            schedule = short_flow_schedule(
                protocol, utilization, 2 * SWEEP_DURATION, seed)[:flows]
            if len(schedule) != flows:
                raise RuntimeError(f"Poisson draw fell short of {flows} flows")
            points.append((protocol, schedule))
    return points


# ----------------------------------------------------------------------
# Results -> outcome
# ----------------------------------------------------------------------

def _flow_failed(record) -> bool:
    """A flow is delivered when its receiver held every payload byte
    (``complete_time`` is stamped at that instant) and the sender never
    gave up."""
    return record.fct is None or record.abort_reason is not None


def fingerprint(records) -> str:
    """``FlowStats.fingerprint()`` over records in submission order."""
    return FlowStats().observe_all(records).fingerprint()


def _records_outcome(records) -> Outcome:
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if _flow_failed(r)),
        "digest": fingerprint(records),
        "consistent": True,
    }


def _record_counts(records) -> Dict[str, int]:
    return {
        "transport.retransmissions_normal":
            sum(r.normal_retransmissions for r in records),
        "transport.retransmissions_proactive":
            sum(r.proactive_retransmissions for r in records),
        "transport.timeouts": sum(r.timeouts for r in records),
        "transport.duplicate_receptions":
            sum(r.duplicate_receptions for r in records),
    }


# ----------------------------------------------------------------------
# Traced-pass bookkeeping shared by the decomposed runs
# ----------------------------------------------------------------------

class _Tally:
    """Exact counts read from each simulator and topology after its run
    (public ``Simulator`` attributes, ``Link.stats``, ``queue.stats``)."""

    def __init__(self) -> None:
        self.events_fired = 0
        self.events_absorbed = 0
        self.packets_tx = 0
        self.queue_drops = 0
        self.loss_drops = 0

    def add(self, sim, net) -> None:
        self.events_fired += sim.events_run
        self.events_absorbed += sim.events_absorbed
        for link in net.topology.links.values():
            self.packets_tx += link.stats.packets_sent
            self.loss_drops += link.stats.packets_lost_inflight
            self.queue_drops += link.queue.stats.dropped


@contextmanager
def _instrumented(ledger: SpanLedger) -> Iterator[LedgerProfiler]:
    """Simulators built inside pick up the ledger's profiler, and the
    ``Host`` boundaries are spanned; both are undone on exit."""
    profiler = LedgerProfiler(ledger)
    with activated(LedgerHub(profiler)), host_boundaries(ledger):
        yield profiler


def _layers(ledger: SpanLedger, profiler: LedgerProfiler, tally: _Tally,
            records) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    wall = ledger.total[ROOT]
    net_self = ledger.self_s("net.event", "net.host_send")
    sender_self = ledger.self_s("transport.rx_sender", "transport.event")
    receiver_self = ledger.self_s("transport.rx_receiver")
    construct = ledger.self_s("experiments.construct", "experiments.event")
    arrivals = (ledger.count["transport.rx_sender"]
                + ledger.count["transport.rx_receiver"])
    logical = tally.events_fired + tally.events_absorbed
    # Time under the root that no layer or phase claims: the root's own
    # loop plus the protocol blocks' loop bodies.
    glue = ledger.self_s(ROOT, *(f"protocols.{p}" for p in PATH_PROTOCOLS))
    layers = {
        "traced_wall_s": wall,
        "ledger_sum_s": sum(ledger.self_time.values()),
        "sim.loop_overhead_s": ledger.self_s("sim.loop"),
        "sim.events_fired": tally.events_fired,
        "sim.events_absorbed": tally.events_absorbed,
        "sim.events_logical": logical,
        "sim.max_heap_depth": profiler.max_heap_depth,
        "net.self_s": net_self,
        "net.us_per_packet": net_self / tally.packets_tx * 1e6,
        "net.packets_tx": tally.packets_tx,
        "net.queue_drops": tally.queue_drops,
        "net.loss_drops": tally.loss_drops,
        "net.fastpath_share": tally.events_absorbed / logical,
        "transport.sender_self_s": sender_self,
        "transport.receiver_self_s": receiver_self,
        "transport.us_per_arrival":
            (sender_self + receiver_self) / arrivals * 1e6,
        "transport.timer_events": ledger.count.get("transport.event", 0),
        "experiments.construct_s": construct,
        "experiments.construct_share": construct / wall,
        "obs.aggregate_s": ledger.self_s("obs.aggregate"),
        "trace.conservation_residual_share": glue / wall,
    }
    for protocol in PATH_PROTOCOLS:
        layers[f"protocols.{protocol}_s"] = ledger.total.get(
            f"protocols.{protocol}", 0.0)
    layers.update(_record_counts(records))
    return layers


# ----------------------------------------------------------------------
# paths_clean / paths_lossy
# ----------------------------------------------------------------------

def _run_paths(paths, seed: int) -> Outcome:
    return _records_outcome([
        run_single_path_flow(spec, protocol, size=FLOW_BYTES, seed=seed)
        for protocol in PATH_PROTOCOLS for spec in paths])


def _trace_paths(paths, seed: int, ledger: SpanLedger) -> Outcome:
    """``run_single_path_flow`` decomposed into its public pieces."""
    until = TransportConfig().max_flow_duration + 1.0
    tally = _Tally()
    records = []
    with _instrumented(ledger) as profiler, ledger.span(ROOT):
        for protocol in PATH_PROTOCOLS:
            with ledger.span(f"protocols.{protocol}"):
                for spec in paths:
                    ledger.push("experiments.construct")
                    sim = Simulator(
                        seed=derive_seed(seed, f"path:{spec.pair_id}"))
                    net = build_path(sim, spec)
                    record = launch_flow(sim, net, protocol, FLOW_BYTES)
                    ledger.pop()
                    sim.run(until=until)
                    ledger.push("trace.tally")
                    record.extra["drops"] = sim.flow_drops.get(
                        record.spec.flow_id, 0)
                    records.append(record)
                    tally.add(sim, net)
                    ledger.pop()
        with ledger.span("obs.aggregate"):
            outcome = _records_outcome(records)
    outcome["layers"] = _layers(ledger, profiler, tally, records)
    return outcome


# ----------------------------------------------------------------------
# bottleneck_sweep
# ----------------------------------------------------------------------

def _run_sweep(points, seed: int) -> Outcome:
    records = []
    for protocol, schedule in points:
        records.extend(run_workload(
            schedule, seed=derive_seed(seed, protocol), n_pairs=SWEEP_PAIRS,
            drain_time=SWEEP_DRAIN).records)
    return _records_outcome(records)


def _trace_sweep(points, seed: int, ledger: SpanLedger) -> Outcome:
    """``run_workload`` decomposed into its public pieces."""
    tally = _Tally()
    records = []
    with _instrumented(ledger) as profiler, ledger.span(ROOT):
        for protocol, schedule in points:
            with ledger.span(f"protocols.{protocol}"):
                with ledger.span("experiments.construct"):
                    sim = Simulator(seed=derive_seed(seed, protocol))
                    net = build_emulab(sim, n_pairs=SWEEP_PAIRS)
                    runner = TrafficRunner(sim, net, drain_time=SWEEP_DRAIN)
                    runner.schedule(schedule)
                records.extend(runner.run())
                with ledger.span("trace.tally"):
                    tally.add(sim, net)
        with ledger.span("obs.aggregate"):
            outcome = _records_outcome(records)
    outcome["layers"] = _layers(ledger, profiler, tally, records)
    return outcome


# ----------------------------------------------------------------------
# observed_flows
# ----------------------------------------------------------------------

def _observed_pass(paths, seed: int, session_factory, flagged):
    """Every flow once under its own session; ``flagged(session,
    record)`` counts what the observer objected to."""
    records, flags = [], []
    for protocol in PATH_PROTOCOLS:
        for spec in paths:
            with session_factory() as session:
                record = run_single_path_flow(spec, protocol,
                                              size=FLOW_BYTES, seed=seed)
            records.append(record)
            flags.append(flagged(session, record))
    return records, flags


def _audit_flags(session, record) -> int:
    return len(session.violations)


def _breakdown_flags(session, record) -> int:
    breakdown = record.extra.get("breakdown")
    return 0 if breakdown is not None and breakdown.conserved else 1


def _observe(paths, seed: int):
    """Both observed passes; returns the outcome and each pass's wall."""
    started = time.perf_counter()
    audited, violations = _observed_pass(paths, seed, AuditSession,
                                         _audit_flags)
    audit_s = time.perf_counter() - started
    started = time.perf_counter()
    attributed, nonconserving = _observed_pass(paths, seed, BreakdownSession,
                                               _breakdown_flags)
    breakdown_s = time.perf_counter() - started
    records = audited + attributed
    digests = [fingerprint(audited), fingerprint(attributed)]
    outcome = {
        "attempted": len(records),
        "failed": sum(1 for record, flags
                      in zip(records, violations + nonconserving)
                      if flags or _flow_failed(record)),
        "digest": hashlib.sha256("".join(digests).encode("ascii")).hexdigest(),
        # Observers must not change what they observe.
        "consistent": digests[0] == digests[1],
        "flow_digest": digests[0],
        "observers": {"audit.violations": sum(violations),
                      "obs.breakdown_nonconserving": sum(nonconserving)},
    }
    return outcome, audit_s, breakdown_s


def _run_observed(paths, seed: int) -> Outcome:
    return _observe(paths, seed)[0]


def _trace_observed(paths, seed: int, ledger: SpanLedger) -> Outcome:
    """The layer ledger describes the *unobserved* flows; each observer
    is priced as its wall over the same flows minus their plain wall."""
    started = time.perf_counter()
    plain = _run_paths(paths, seed)
    base_s = time.perf_counter() - started
    traced = _trace_paths(paths, seed, ledger)
    outcome, audit_s, breakdown_s = _observe(paths, seed)
    outcome["consistent"] = (
        outcome["consistent"]
        and plain["digest"] == traced["digest"] == outcome["flow_digest"])
    outcome["layers"] = {
        **traced["layers"],
        **outcome["observers"],
        "trace_base_s": base_s,
        "audit.self_s": audit_s - base_s,
        "audit.overhead_x": audit_s / base_s,
        "obs.breakdown_self_s": breakdown_s - base_s,
        "obs.breakdown_overhead_x": breakdown_s / base_s,
    }
    return outcome


WORKLOADS: Dict[str, Workload] = {
    "paths_clean": Workload(clean_paths, _run_paths, _trace_paths,
                            "planetlab.population_gen_s"),
    "paths_lossy": Workload(_lossy_paths, _run_paths, _trace_paths,
                            "planetlab.population_gen_s"),
    "bottleneck_sweep": Workload(_sweep_schedules, _run_sweep, _trace_sweep,
                                 "workloads.schedule_gen_s"),
    "observed_flows": Workload(_observed_paths, _run_observed,
                               _trace_observed,
                               "planetlab.population_gen_s"),
}


# ----------------------------------------------------------------------
# cold_cli
# ----------------------------------------------------------------------

def _timed_process(argv: List[str], cwd: str, env: Dict[str, str]):
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return time.perf_counter() - started, done


def _children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / MB


def _manifestfingerprint(cwd: str) -> Optional[str]:
    """The run's result fingerprint, or None for a missing, unreadable,
    schema-invalid or failed manifest."""
    try:
        with open(os.path.join(cwd, "run_manifest.json")) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    if validate_manifest(manifest) or manifest.get("exit_status") != 0:
        return None
    return (manifest.get("result") or {}).get("fingerprint")


def run_cold_cli(seed: int, work_dir: str) -> Outcome:
    """Fresh ``python -m repro fig3`` processes, one at a time, each in
    its own empty directory under ``work_dir`` (where it writes its
    manifest).  Set-up is a fresh import of the CLI module, which is what
    every subcommand pays before doing anything."""
    env = child_env()
    scratch = tempfile.mkdtemp(prefix="cold-", dir=work_dir)
    try:
        import_walls = [
            _timed_process([sys.executable, "-c", COLD_IMPORT], scratch,
                           env)[0]
            for _ in range(COLD_IMPORT_PROBES)]
        cpu_before, setup_rss = _children_usage()
        walls, exits, runs = [], [], []
        section_started = time.perf_counter()
        for index in range(COLD_PROCESSES):
            cwd = os.path.join(scratch, str(index))
            os.mkdir(cwd)
            wall, done = _timed_process(
                [sys.executable, "-m", "repro", "fig3", "--seed", str(seed)],
                cwd, env)
            walls.append(wall)
            exits.append(done.returncode)
            runs.append(cwd)
        section_s = time.perf_counter() - section_started
        cpu_after, peak_rss = _children_usage()
        fingerprints = [_manifestfingerprint(cwd) for cwd in runs]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    good = {fp for fp, code in zip(fingerprints, exits) if fp and code == 0}
    return {
        "attempted": COLD_PROCESSES,
        "failed": sum(1 for fp, code in zip(fingerprints, exits)
                      if code != 0 or not fp),
        "digest": hashlib.sha256(
            "".join(sorted(good)).encode("ascii")).hexdigest(),
        # Every process ran the same inputs, so one fingerprint.
        "consistent": len(good) <= 1,
        "section_s": section_s,
        "wall_s": median(walls),
        "cpu_s": (cpu_after - cpu_before) / COLD_PROCESSES,
        "setup_s": median(import_walls),
        "peak_rss_mb": peak_rss,
        "setup_rss_mb": setup_rss,
    }


def import_probe() -> Dict[str, float]:
    """A fresh interpreter's wall to import the CLI module, and how many
    ``repro`` modules that drags in."""
    code = ("import sys, time; t = time.perf_counter(); "
            + COLD_IMPORT + "; "
            "print(time.perf_counter() - t, sum(1 for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))")
    env = child_env()
    samples = []
    for _ in range(COLD_IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        wall, modules = done.stdout.split()
        samples.append((float(wall), int(modules)))
    return {"experiments.import_s": median(wall for wall, _ in samples),
            "experiments.modules_imported": samples[0][1]}
