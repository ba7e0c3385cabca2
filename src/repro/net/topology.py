"""Topology construction and static routing.

:class:`Topology` tracks nodes and duplex connections and computes
shortest-path next-hop tables.  Two canonical builders are provided:

* :func:`access_network` — the paper's Emulab setup (Fig. 4): ``n`` sender
  hosts on 1 Gbps edges, one 15 Mbps bottleneck with 60 ms RTT, ``n``
  receiver hosts on 1 Gbps edges, and a drop-tail bottleneck buffer of one
  BDP (115 KB) by default.
* :func:`dumbbell` — a generic two-router dumbbell for sensitivity tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.context import current_profile
from repro.errors import TopologyError
from repro.net.link import Link
from repro.net.node import Host, Node, Router
from repro.net.queue import DropTailQueue
from repro.sim.simulator import Simulator
from repro.units import gbps, kb, mbps, ms

__all__ = ["Topology", "AccessNetwork", "access_network", "dumbbell"]


class Topology:
    """A collection of nodes plus duplex connections between them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        return self._add_node(Host(self.sim, name))

    def add_router(self, name: str) -> Router:
        """Create and register a router."""
        return self._add_node(Router(self.sim, name))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adjacency[node.name] = []
        return node

    def connect(
        self,
        a: str,
        b: str,
        rate: float,
        delay: float,
        queue_bytes: Optional[int] = None,
        loss_rate: float = 0.0,
        reverse_queue_bytes: Optional[int] = None,
    ) -> Tuple[Link, Link]:
        """Create a duplex connection ``a <-> b``.

        ``queue_bytes`` bounds the egress queue of the ``a -> b`` direction
        (the direction that matters for a bottleneck); the reverse direction
        gets ``reverse_queue_bytes`` or the same bound.
        Returns the ``(a->b, b->a)`` link pair.
        """
        node_a = self._node(a)
        node_b = self._node(b)
        forward = Link(
            self.sim, f"{a}->{b}", node_b, rate, delay,
            queue=DropTailQueue(queue_bytes) if queue_bytes else None,
            loss_rate=loss_rate,
        )
        rq = reverse_queue_bytes if reverse_queue_bytes is not None else queue_bytes
        backward = Link(
            self.sim, f"{b}->{a}", node_a, rate, delay,
            queue=DropTailQueue(rq) if rq else None,
            loss_rate=loss_rate,
        )
        self.links[(a, b)] = forward
        self.links[(b, a)] = backward
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        return forward, backward

    def _node(self, name: str) -> Node:
        node = self.nodes.get(name)
        if node is None:
            raise TopologyError(f"unknown node {name!r}")
        return node

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def compute_routes(self) -> None:
        """Fill every node's next-hop table with shortest-path (hop count)
        routes toward every *host*.  Ties break on neighbor insertion
        order, keeping the computation deterministic.  Links' compiled
        forwarding chains are cleared, so the next plan sees the new
        routes."""
        for link in self.links.values():
            link._chains.clear()
        hosts = [n for n in self.nodes.values() if isinstance(n, Host)]
        for target in hosts:
            # parents[] points toward the target (BFS rooted there), so a
            # node's next hop is simply its parent in that tree.
            parents = self._bfs_parents(target.name)
            for node in self.nodes.values():
                next_hop = parents.get(node.name)
                if next_hop is not None and node is not target:
                    node.routes[target.name] = self.links[(node.name, next_hop)]

    def _bfs_parents(self, root: str) -> Dict[str, str]:
        parents: Dict[str, str] = {root: root}
        frontier = deque([root])
        while frontier:
            here = frontier.popleft()
            for neighbor in self._adjacency[here]:
                if neighbor not in parents:
                    parents[neighbor] = here
                    frontier.append(neighbor)
        return parents

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def host(self, name: str) -> Host:
        """The named host (TypeError-free accessor)."""
        node = self._node(name)
        if not isinstance(node, Host):
            raise TopologyError(f"{name!r} is not a host")
        return node

    def link(self, a: str, b: str) -> Link:
        """The ``a -> b`` directed link."""
        key = (a, b)
        if key not in self.links:
            raise TopologyError(f"no link {a!r} -> {b!r}")
        return self.links[key]


@dataclass
class AccessNetwork:
    """The built Fig. 4 topology plus its derived constants."""

    topology: Topology
    senders: List[Host]
    receivers: List[Host]
    bottleneck: Link
    reverse_bottleneck: Link
    bottleneck_rate: float
    rtt: float
    buffer_bytes: int
    #: bandwidth-delay product of the sender->receiver path, in bytes.
    bdp_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.bdp_bytes = int(self.bottleneck_rate * self.rtt)

    def pair(self, index: int) -> Tuple[Host, Host]:
        """The ``index``-th (sender, receiver) host pair."""
        return self.senders[index], self.receivers[index]


def access_network(
    sim: Simulator,
    n_pairs: int = 1,
    bottleneck_rate: float = mbps(15),
    rtt: float = ms(60),
    buffer_bytes: int = kb(115),
    edge_rate: float = gbps(1),
    edge_loss: float = 0.0,
) -> AccessNetwork:
    """Build the paper's Emulab topology (Fig. 4).

    ``n_pairs`` sender hosts connect through routers ``r1 -> r2`` (the
    bottleneck, with a drop-tail buffer of ``buffer_bytes``) to ``n_pairs``
    receiver hosts.  Propagation delays are chosen so the end-to-end RTT is
    ``rtt``: edges carry 1/30 of the one-way delay each, the bottleneck the
    rest — matching the paper's single-bottleneck RTT of 60 ms.
    """
    if n_pairs < 1:
        raise TopologyError("need at least one sender/receiver pair")
    topo = Topology(sim)
    r1 = topo.add_router("r1")
    r2 = topo.add_router("r2")
    one_way = rtt / 2.0
    edge_delay = one_way / 30.0
    bottleneck_delay = one_way - 2 * edge_delay

    senders: List[Host] = []
    receivers: List[Host] = []
    for i in range(n_pairs):
        sender = topo.add_host(f"s{i}")
        receiver = topo.add_host(f"d{i}")
        _, to_sender = topo.connect(sender.name, r1.name, edge_rate,
                                    edge_delay, loss_rate=edge_loss)
        to_receiver, _ = topo.connect(r2.name, receiver.name, edge_rate,
                                      edge_delay, loss_rate=edge_loss)
        # Last-mile edges have a single structural feeder (the adjacent
        # bottleneck): data toward d_i only ever arrives at r2 over
        # r1->r2, and ACKs toward s_i only arrive at r1 over r2->r1, so
        # the batched datapath may plan cut-through deliveries across
        # them (see repro.net.link).
        to_receiver.cut_through = True
        to_sender.cut_through = True
        senders.append(sender)
        receivers.append(receiver)

    forward, backward = topo.connect(
        r1.name, r2.name, bottleneck_rate, bottleneck_delay,
        queue_bytes=buffer_bytes,
    )
    if n_pairs == 1:
        # With one pair each bottleneck direction is also sole-feeder
        # (only s0's edge feeds r1->r2, only d0's edge feeds r2->r1) —
        # the PlanetLab per-path topologies hit this shape ~2.6K times
        # per figure run.
        forward.cut_through = True
        backward.cut_through = True
    topo.compute_routes()
    network = AccessNetwork(
        topology=topo,
        senders=senders,
        receivers=receivers,
        bottleneck=forward,
        reverse_bottleneck=backward,
        bottleneck_rate=bottleneck_rate,
        rtt=rtt,
        buffer_bytes=buffer_bytes,
    )
    # Ambient chaos (the --chaos flag / repro.chaos.session): every
    # access network built while a profile is active gets its bottleneck
    # impairments attached, without threading chaos through the 17
    # experiment signatures.
    profile = current_profile()
    if profile is not None:
        profile.apply(network)
    return network


def dumbbell(
    sim: Simulator,
    n_pairs: int,
    bottleneck_rate: float,
    rtt: float,
    buffer_bytes: int,
    edge_rate: Optional[float] = None,
) -> AccessNetwork:
    """A generic dumbbell: like :func:`access_network` with free parameters."""
    return access_network(
        sim,
        n_pairs=n_pairs,
        bottleneck_rate=bottleneck_rate,
        rtt=rtt,
        buffer_bytes=buffer_bytes,
        edge_rate=edge_rate if edge_rate is not None else gbps(1),
    )
