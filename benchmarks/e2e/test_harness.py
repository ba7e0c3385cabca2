"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (outside
tier-1's ``testpaths``): the ledger arithmetic, the layer classification,
the ``BENCHMARK.json`` contract, ``compare`` verdicts, and a small run
of each in-process workload.
"""

from __future__ import annotations

import dataclasses
import pkgutil
import re

import pytest

import repro
from repro.experiments.runner import launch_flow
from repro.net.node import Host
from repro.planetlab.paths import PathPopulation, build_path
from repro.sim.simulator import Simulator

from . import compare, probes, spec, workloads
from .ledger import (OTHER_LAYER, LedgerProfiler, SpanLedger,
                     host_boundaries, layer_of_callback, layer_of_module)

BENCHMARK = spec.load()


class _NetOwned:
    """Stands in for a link: its bound methods classify as ``net``."""

    __module__ = "repro.net.link"

    def fire(self) -> None:
        pass


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------

def test_self_time_is_duration_minus_child_cover():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    ledger.push("root")             # 0 .. 10
    clock.now = 1.0
    ledger.push("a")                # 1 .. 6
    clock.now = 2.0
    ledger.push("b")                # 2 .. 4, nested in a
    clock.now = 4.0
    ledger.pop()
    clock.now = 6.0
    ledger.pop()
    clock.now = 7.0
    ledger.push("a")                # 7 .. 8, a sibling with the same name
    clock.now = 8.0
    ledger.pop()
    clock.now = 10.0
    ledger.pop()
    assert ledger.total == {"root": 10.0, "a": 6.0, "b": 2.0}
    assert ledger.self_time == {"root": 4.0, "a": 4.0, "b": 2.0}
    assert ledger.count == {"root": 1, "a": 2, "b": 1}
    assert sum(ledger.self_time.values()) == ledger.total["root"]


def test_settled_events_take_the_spans_closed_inside_them():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    profiler = LedgerProfiler(ledger)
    link_callback = _NetOwned().fire
    profiler.begin_run()            # sim.loop 0 .. 10
    # Event 1 ran 1 .. 5 and held a receive span 2 .. 4.
    clock.now = 2.0
    ledger.push("transport.rx_receiver")
    clock.now = 4.0
    ledger.pop()
    clock.now = 5.0
    profiler.on_event(link_callback, 4.0, heap_depth=3)
    # Event 2 ran 6 .. 8 with nothing nested.
    clock.now = 8.0
    profiler.on_event(link_callback, 2.0, heap_depth=7)
    clock.now = 10.0
    profiler.end_run()
    assert ledger.self_time == {"sim.loop": 4.0, "net.event": 4.0,
                                "transport.rx_receiver": 2.0}
    assert ledger.count["net.event"] == 2
    assert profiler.max_heap_depth == 7


def test_phase_spans_are_kept_whole_with_their_parent():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    with ledger.span("outer"):
        clock.now = 1.0
        with ledger.span("inner"):
            clock.now = 3.0
    assert ledger.phases == [("inner", 1.0, 3.0, "outer"),
                             ("outer", 0.0, 3.0, None)]


# ----------------------------------------------------------------------
# Callback owner -> layer
# ----------------------------------------------------------------------

class _CallbackSpy:
    """A ``Simulator(profiler=...)`` that keeps every fired callback."""

    clock = staticmethod(lambda: 0.0)

    def __init__(self) -> None:
        self.callbacks = []

    def begin_run(self) -> None:
        pass

    def end_run(self) -> None:
        pass

    def on_event(self, callback, elapsed, heap_depth) -> None:
        self.callbacks.append(callback)


def test_every_repro_module_maps_to_a_layer():
    top_level = {name for _, name, _ in pkgutil.iter_modules(repro.__path__)}
    layers = top_level - {"sim", "protocols", "core"}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        assert layer_of_module(info.name) in layers, info.name
    assert layer_of_module("repro.sim.simulator") == "transport"
    assert layer_of_module("repro.protocols.halfback") == "transport"
    assert layer_of_module("repro.core.ropr") == "transport"
    assert layer_of_module("repro") == OTHER_LAYER
    assert layer_of_module("benchmarks.e2e.probes") == OTHER_LAYER
    assert layer_of_module(None) == OTHER_LAYER


def test_callbacks_of_a_real_flow_classify_by_their_owner():
    spy = _CallbackSpy()
    sim = Simulator(seed=1, profiler=spy)
    path = PathPopulation(n_pairs=3, seed=1).paths[2]
    # A deferred start (a closure of launch_flow) and enough loss for
    # TCP to time out, so link, RTO-timer and flow-start callbacks fire.
    lossy = dataclasses.replace(path, loss_rate=0.1)
    record = launch_flow(sim, build_path(sim, lossy), "tcp", 100_000,
                         start_time=0.5)
    sim.run(until=60.0)
    assert record.completed and record.timeouts
    owners = {}
    for callback in spy.callbacks:
        owner = getattr(callback, "__self__", callback)
        owners.setdefault(layer_of_callback(callback), set()).add(
            type(owner).__module__ if owner is not callback
            else callback.__module__)
    assert set(owners) == {"net", "transport", "experiments"}
    assert owners["net"] == {"repro.net.link"}
    assert "repro.sim.simulator" in owners["transport"]    # Timer._fire
    assert owners["experiments"] == {"repro.experiments.runner"}
    assert layer_of_callback(lambda: None) == OTHER_LAYER


def test_host_wrappers_are_restored_even_after_an_error():
    receive, send = Host.receive, Host.send
    with pytest.raises(RuntimeError):
        with host_boundaries(SpanLedger()):
            assert Host.receive is not receive and Host.send is not send
            raise RuntimeError("boom")
    assert Host.receive is receive and Host.send is send


# ----------------------------------------------------------------------
# BENCHMARK.json contract
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = (BENCHMARK["workloads"] + BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"])
    names = [entry["name"] for entry in every]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])


def test_metric_sources_and_the_json_agree():
    per_layer = set(spec.names(BENCHMARK["per_layer"]))
    assert set(probes.PROBES) <= per_layer
    assert set(compare.EXACT_METRICS) <= per_layer
    assert (set(spec.names(BENCHMARK["workloads"]))
            == set(workloads.WORKLOADS) | {"cold_cli"})


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------

def test_verdicts():
    steady = [10.0, 10.1, 10.0, 9.9, 10.0]
    assert compare.verdict(steady, [10.4, 10.5, 10.4, 10.3, 10.4],
                           bound=0.10) == "ok"
    assert compare.verdict(steady, [11.5, 11.6, 11.5, 11.4, 11.5],
                           bound=0.10) == "worse"
    assert compare.verdict(steady, [8.0, 8.1, 8.0, 7.9, 8.0],
                           bound=0.10) == "ok"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(steady, noisy, bound=0.10) == "unresolved"
    # Wide spread, but every B run beats every A run.
    assert compare.verdict(noisy, [5.0, 6.0, 7.0, 5.5, 6.5],
                           bound=0.10) == "ok"
    # "higher is better" flips the direction.
    assert compare.verdict(steady, [8.0, 8.1, 8.0, 7.9, 8.0], bound=0.10,
                           better="higher") == "worse"


def _document(wall, digest="d", events=100):
    layer = {name: {"value": 0, "unit": "count"}
             for name in compare.EXACT_METRICS}
    layer["sim.events_fired"] = {"value": events, "unit": "count"}
    samples = {m["name"]: [1.0, 1.0, 1.0] for m in BENCHMARK["end_to_end"]}
    samples["wall_s"] = wall
    return {"workloads": {"paths_clean": {
        "end_to_end": {"samples": samples, "digest": digest},
        "per_layer": {"metrics": layer}}}}


def test_compare_rows_and_exact_differences():
    result = compare.compare(_document([1.0, 1.01, 0.99]),
                             _document([1.3, 1.31, 1.29], "e", 101),
                             BENCHMARK)
    rows = {row["metric"]: row for row in result["rows"]}
    assert set(rows) == set(spec.names(BENCHMARK["end_to_end"]))
    assert rows["wall_s"]["verdict"] == "worse"
    assert rows["wall_s"]["ratio"] == pytest.approx(1.3)
    assert rows["cpu_s"]["verdict"] == "ok"
    assert len(result["differences"]) == 2
    assert "B/A" in compare.render(result)


# ----------------------------------------------------------------------
# A small run of each in-process workload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_is_deterministic_and_trace_matches(name, monkeypatch):
    # Shrink the sweep to about ten flows a point; path workloads take
    # four paths (twelve flows).
    monkeypatch.setattr(workloads, "SWEEP_DURATION", 1.0)
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(7)
    if name != "bottleneck_sweep":
        inputs = inputs[:4]
    first = workload.run(inputs, 7)
    second = workload.run(inputs, 7)
    ledger = SpanLedger()
    traced = workload.trace(inputs, 7, ledger)
    assert first["attempted"] >= 10 and first["failed"] == 0
    assert first["consistent"] and traced["consistent"]
    assert first["digest"] == second["digest"] == traced["digest"]
    layers = traced["layers"]
    assert layers["ledger_sum_s"] == pytest.approx(layers["traced_wall_s"])
    assert layers["trace.conservation_residual_share"] < 0.05
    assert layers["sim.events_logical"] == (layers["sim.events_fired"]
                                            + layers["sim.events_absorbed"])
    assert layers["net.self_s"] > 0 and layers["transport.sender_self_s"] > 0
    assert Host.receive.__name__ == "receive"
    assert Host.send.__name__ == "send"
