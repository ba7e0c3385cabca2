"""Outside-in span ledger: where a traced pass spends its wall clock.

Everything here observes the program from the benchmark's side of its
public surface, so a later PR cannot move a number by moving a span:

* :class:`SpanLedger` is a span stack that accumulates, per span name,
  total time, self time (duration minus the part child spans cover) and
  a count.  A traced pass fires on the order of a million per-packet
  spans, so the ledger aggregates by name instead of keeping each span;
  only the coarse phase spans (a handful per pass) are kept whole and
  written out by the child.
* :class:`LedgerProfiler` is handed to ``Simulator(profiler=...)``
  (through :class:`LedgerHub` and ``repro.telemetry.context.activated``).
  The simulator times every event callback itself and reports it after
  the fact; the profiler turns each report into a child span of the
  open ``sim.loop`` span, named after the layer that owns the callback.
* :func:`host_boundaries` wraps ``Host.receive`` (net -> transport) and
  ``Host.send`` (transport -> net) for the duration of a traced pass and
  restores the originals on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.net.node import Host
from repro.net.packet import PacketType

__all__ = ["SpanLedger", "LedgerProfiler", "LedgerHub", "host_boundaries",
           "layer_of_module", "layer_of_callback", "LAYER_ALIASES"]

#: ``repro.<package>`` -> ledger layer, where the two differ.  A
#: sim-owned callback is always ``Timer._fire`` (RTO / probe timers),
#: whose time is spent in the transport callback it wraps; sender
#: subclasses (``protocols``) and their ``core`` hooks run inside the
#: transport sender's callbacks and cannot be told apart from outside.
LAYER_ALIASES = {"sim": "transport", "protocols": "transport",
                 "core": "transport"}

#: Layer for callbacks owned by nothing under ``repro`` (test doubles).
OTHER_LAYER = "other"


def layer_of_module(module: Optional[str]) -> str:
    """Ledger layer for a dotted module name (``repro.net.link`` -> net)."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return OTHER_LAYER
    return LAYER_ALIASES.get(parts[1], parts[1])


def layer_of_callback(callback: Callable) -> str:
    """Ledger layer owning an event callback: the module of the bound
    method's receiver class, or of the function itself for closures."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return layer_of_module(type(owner).__module__)
    return layer_of_module(getattr(callback, "__module__", None))


class SpanLedger:
    """Span-stack accounting with per-name totals, self times and counts.

    ``push``/``pop`` bracket a span the caller times through the ledger;
    ``settle`` accounts a child of the open span that the *callee* timed
    (the simulator's per-event clock readings).  Spans closed since the
    previous ``settle`` on the same open span are that child's children.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        #: Whole phase spans ``(name, start, end, parent name)`` kept for
        #: the trace file; per-packet spans are aggregated only.
        self.phases: List[Tuple[str, float, float, Optional[str]]] = []
        # Frames: [name, start, child seconds, child seconds settled].
        self._stack: List[list] = []

    def _account(self, name: str, duration: float, children: float) -> None:
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.count[name] += 1

    def push(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, 0.0])

    def pop(self) -> float:
        name, start, children, _ = self._stack.pop()
        duration = self.clock() - start
        self._account(name, duration, children)
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def settle(self, name: str, duration: float) -> None:
        """Account a callee-timed child span of the open span."""
        frame = self._stack[-1]
        self._account(name, duration, frame[2] - frame[3])
        frame[2] = frame[3] = frame[3] + duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A phase span: accounted like any other and also kept whole."""
        parent = self._stack[-1][0] if self._stack else None
        self.push(name)
        start = self._stack[-1][1]
        try:
            yield
        finally:
            self.phases.append((name, start, start + self.pop(), parent))

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans (absent names count 0)."""
        return sum(self.self_time.get(name, 0.0) for name in names)


class LedgerProfiler:
    """The ``Simulator(profiler=...)`` hook feeding a :class:`SpanLedger`.

    Implements the four members the simulator calls: ``clock``,
    ``begin_run``, ``end_run`` and ``on_event``.
    """

    def __init__(self, ledger: SpanLedger) -> None:
        self.ledger = ledger
        self.clock = ledger.clock
        self.max_heap_depth = 0
        self._span_names: Dict[int, str] = {}

    def begin_run(self) -> None:
        self.ledger.push("sim.loop")

    def end_run(self) -> None:
        self.ledger.pop()

    def on_event(self, callback, elapsed: float, heap_depth: int) -> None:
        key = id(getattr(callback, "__func__", callback))
        name = self._span_names.get(key)
        if name is None:
            name = self._span_names[key] = (
                layer_of_callback(callback) + ".event")
        self.ledger.settle(name, elapsed)
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth


class LedgerHub:
    """Minimal ambient hub: simulators built while it is activated pick
    up the profiler and nothing else (trace and metrics stay off, so
    links keep their batched fast path)."""

    def __init__(self, profiler: LedgerProfiler) -> None:
        self.profiler = profiler
        self.trace = None
        self.metrics = None


#: Packets a receiver sends arrive at the sender side of transport;
#: every other kind arrives at the receiver side.
_SENDER_BOUND = (PacketType.ACK, PacketType.SYN_ACK)
RECEIVE_SPAN = {kind: ("transport.rx_sender" if kind in _SENDER_BOUND
                       else "transport.rx_receiver") for kind in PacketType}


@contextmanager
def host_boundaries(ledger: SpanLedger) -> Iterator[None]:
    """Span every ``Host.receive`` (split by packet kind into the sender
    and the receiver side of transport) and every ``Host.send``."""
    receive, send = Host.receive, Host.send
    push, pop = ledger.push, ledger.pop
    receive_span = RECEIVE_SPAN

    def traced_receive(self, packet) -> None:
        push(receive_span[packet.kind])
        try:
            receive(self, packet)
        finally:
            pop()

    def traced_send(self, packet) -> None:
        push("net.host_send")
        try:
            send(self, packet)
        finally:
            pop()

    Host.receive, Host.send = traced_receive, traced_send
    try:
        yield
    finally:
        Host.receive, Host.send = receive, send
