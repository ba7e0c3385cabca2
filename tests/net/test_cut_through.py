"""The guards around cut-through planning (:mod:`repro.net.link`).

A link marked ``cut_through`` promises a single structural feeder, and
the batched datapath plans packets across it from upstream.  A second
feeder would race those plans, so the admission refuses loudly.  The
plans follow compiled forwarding chains, which must track
:meth:`Topology.compute_routes` and must refuse a routing loop.
"""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.net.packet import Packet, PacketType
from repro.net.topology import Topology
from repro.sim.simulator import Simulator


def data(src, dst, flow_id=1):
    return Packet(src=src, dst=dst, flow_id=flow_id, kind=PacketType.DATA,
                  size=1500)


class Sink:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def test_second_feeder_races_a_cut_through_plan():
    """a and b both feed r->c.  a's slow edge plans its packet through
    r->c ahead of time; b's fast edge then admits one into r->c before
    that planned arrival."""
    sim = Simulator()
    topo = Topology(sim)
    for name in ("a", "b", "c"):
        topo.add_host(name)
    topo.add_router("r")
    topo.connect("a", "r", rate=1e6, delay=0.5)
    topo.connect("b", "r", rate=1e9, delay=0.001)
    topo.connect("r", "c", rate=1e9, delay=0.001)
    topo.link("r", "c").cut_through = True
    topo.compute_routes()
    topo.nodes["c"].register(1, Sink())
    topo.nodes["a"].send(data("a", "c"))
    topo.nodes["b"].send(data("b", "c"))
    with pytest.raises(SimulationError, match="races a cut-through plan"):
        sim.run()


def test_recomputed_routes_reach_the_new_path():
    """a - r1 - r2 - r3 - b with every transit link cut-through; then a
    direct r1 - b link and a second compute_routes().  A chain compiled
    for the first route must not carry the next packet down it."""
    sim = Simulator()
    topo = Topology(sim)
    for name in ("a", "b"):
        topo.add_host(name)
    for name in ("r1", "r2", "r3"):
        topo.add_router(name)
    topo.connect("a", "r1", 1e9, 0.001)
    topo.connect("r1", "r2", 1e9, 0.001)
    topo.connect("r2", "r3", 1e9, 0.001)
    topo.connect("r3", "b", 1e9, 0.001)
    for a, b in (("r1", "r2"), ("r2", "r3"), ("r3", "b")):
        topo.link(a, b).cut_through = True
    topo.compute_routes()
    sink = Sink()
    topo.nodes["b"].register(1, sink)
    topo.nodes["a"].send(data("a", "b"))
    sim.run()
    assert [p.hops for p in sink.packets] == [4]

    direct, __ = topo.connect("r1", "b", 1e9, 0.001)
    direct.cut_through = True
    topo.compute_routes()
    topo.nodes["a"].send(data("a", "b"))
    sim.run()
    assert [p.hops for p in sink.packets] == [4, 2]
    assert direct.stats.packets_delivered == 1
    assert topo.link("r1", "r2").stats.packets_sent == 1


def test_cut_through_routing_loop_is_refused():
    sim = Simulator()
    topo = Topology(sim)
    for name in ("a", "b"):
        topo.add_host(name)
    for name in ("r1", "r2"):
        topo.add_router(name)
    topo.connect("a", "r1", 1e9, 0.001)
    topo.connect("r1", "r2", 1e9, 0.001)
    topo.connect("r2", "b", 1e9, 0.001)
    topo.compute_routes()
    there, back = topo.link("r1", "r2"), topo.link("r2", "r1")
    there.cut_through = back.cut_through = True
    topo.nodes["r2"].routes["b"] = back
    with pytest.raises(TopologyError, match="routing loop"):
        topo.nodes["a"].send(data("a", "b"))
