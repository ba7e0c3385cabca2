"""The happens-before graph over one run's provenance trace.

:class:`HBGraph` consumes a stream of trace records — the v5
``sched.exec`` scheduler-provenance events plus the v2 ``pkt.*``
lineage events — and builds the causal DAG of the run:

* **sched** edges: scheduling parent → child (the callback that ran
  ``sim.schedule(...)`` happens-before the scheduled event);
* **timer** edges: the same parent edge when the child is a
  :class:`~repro.sim.simulator.Timer` expiry (set → fire);
* **msg** edges: the event that serialized a packet onto a link
  (``pkt.tx``) → the event that delivered it (``pkt.deliver``);
* **ack** edges: the event that delivered a data packet → the event in
  which the receiver generated the responding ACK (``pkt.ack_gen``'s
  ``parent`` uid);
* **po** edges: program order — consecutive events executed against the
  same entity.  Program order is *recorded* but deliberately excluded
  from race reachability: between same-timestamp events it is exactly
  the tie-break artifact whose significance the analysis questions.

The causal edge rules and the per-group race rule are
:mod:`repro.hb.ties`'s, shared with the streaming audit checker.

The race check (:meth:`HBGraph.races`) asks: within each group of
same-timestamp events, is every pair that touches the same entity
connected by a causal (non-po) happens-before path?  A pair that is
not is an *execution-order sensitivity*: the scheduler's FIFO
tie-break, not the model, decided their order, and a permuted
tie-break (:mod:`repro.hb.perturb`) could change the run's results.
Causal edges never go backward in simulated time, so a path between
two same-timestamp events can only traverse events at that same
timestamp — reachability is decided entirely within the group.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.hb.ties import CausalEdges, TieGroup, label
from repro.telemetry.schema import EV_SCHED_EXEC

__all__ = ["HBNode", "HBGraph", "build_graph"]

#: Edge kinds that establish causal order (race reachability).  ``po``
#: is excluded: among same-timestamp events it is the tie-break
#: artifact under audit, not evidence of an ordering constraint.
CAUSAL_EDGE_KINDS = frozenset({"sched", "timer", "msg", "ack"})


class HBNode:
    """One executed scheduler event (a ``sched.exec`` record)."""

    __slots__ = ("seq", "time", "entity", "callback", "parent", "prio")

    def __init__(self, seq: int, time: float, entity: str, callback: str,
                 parent: Optional[int], prio: int) -> None:
        self.seq = seq
        self.time = time
        self.entity = entity
        self.callback = callback
        self.parent = parent
        self.prio = prio

    def label(self) -> str:
        """Short human-readable identity for reports and exports."""
        return label(self.entity, self.callback, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HBNode seq={self.seq} t={self.time:.6f} "
                f"{self.entity} {self.callback}>")


class HBGraph:
    """The happens-before DAG of one run (see module docstring).

    Build by streaming records through :meth:`observe` (or use
    :func:`build_graph`); nodes are kept in execution order.
    """

    def __init__(self) -> None:
        #: seq -> node, in execution (stream) order.
        self.nodes: Dict[int, HBNode] = {}
        #: (src seq, dst seq, kind) — deduplicated.
        self.edges: Set[Tuple[int, int, str]] = set()
        self._entity_last: Dict[str, int] = {}
        self._causal = CausalEdges()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def observe(self, record) -> None:
        """Fold one trace record into the graph."""
        edge = self._causal.observe(record)
        current = self._causal.current
        if record.kind == EV_SCHED_EXEC:
            detail = record.detail
            node = HBNode(current, record.time, record.source,
                          detail["callback"], detail.get("parent"),
                          detail.get("prio", 0))
            self.nodes[current] = node
            last = self._entity_last.get(node.entity)
            if last is not None:
                self.edges.add((last, current, "po"))
            self._entity_last[node.entity] = current
        if edge is not None:
            src, edge_kind = edge
            if src != current and src in self.nodes:
                self.edges.add((src, current, edge_kind))

    def observe_all(self, records: Iterable[Any]) -> "HBGraph":
        """Fold a record iterable into the graph; returns self."""
        for record in records:
            self.observe(record)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def entities(self) -> List[str]:
        """Distinct entities, in first-execution order."""
        seen: Dict[str, None] = {}
        for node in self.nodes.values():
            seen.setdefault(node.entity, None)
        return list(seen)

    def tie_groups(self) -> List[List[HBNode]]:
        """Same-timestamp groups of two or more consecutively-executed
        events, in execution order."""
        groups: List[List[HBNode]] = []
        run: List[HBNode] = []
        for node in self.nodes.values():
            if run and node.time == run[-1].time:
                run.append(node)
            else:
                if len(run) >= 2:
                    groups.append(run)
                run = [node]
        if len(run) >= 2:
            groups.append(run)
        return groups

    def stats(self) -> Dict[str, Any]:
        """Summary counts for reports and the CLI."""
        by_kind: Dict[str, int] = {}
        for _, _, kind in self.edges:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        groups = self.tie_groups()
        roots = sum(1 for n in self.nodes.values() if n.parent is None)
        return {
            "nodes": len(self.nodes),
            "entities": len(self.entities()),
            "roots": roots,
            "edges": dict(sorted(by_kind.items())),
            "tie_groups": len(groups),
            "max_tie_group": max((len(g) for g in groups), default=0),
        }

    def races(self) -> List[Dict[str, Any]]:
        """Same-timestamp, same-entity event pairs with no causal path.

        For each tie group, entities executing two or more events are
        checked pairwise in execution order; a consecutive pair with no
        causal (non-po) happens-before path between them is reported.
        Consecutive pairs suffice: if every consecutive pair on an
        entity is causally ordered, the whole per-entity sequence is.
        """
        # Causal edges never go backward in simulated time, so the
        # same-instant ones are exactly the in-group ones.
        nodes = self.nodes
        forward: Dict[int, List[int]] = {}
        for src, dst, kind in self.edges:
            if (kind in CAUSAL_EDGE_KINDS
                    and nodes[src].time == nodes[dst].time):
                forward.setdefault(src, []).append(dst)
        races: List[Dict[str, Any]] = []
        for group in self.tie_groups():
            events = [(node.seq, node.entity, node.callback)
                      for node in group]
            races.extend(TieGroup(group[0].time, events, forward).races())
        return races

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def to_dot(self, max_nodes: int = 2000) -> str:
        """Graphviz DOT rendering (``dot -Tsvg hb.dot -o hb.svg``).

        Nodes beyond ``max_nodes`` (execution order) are elided so a
        long run still yields a renderable file; causal edge kinds are
        styled distinctly and program order is dashed grey.
        """
        styles = {
            "sched": 'color="black"',
            "timer": 'color="darkorange"',
            "msg": 'color="blue"',
            "ack": 'color="forestgreen"',
            "po": 'color="grey60", style="dashed"',
        }
        kept = dict(list(self.nodes.items())[:max_nodes])
        lines = ["digraph hb {", '  rankdir="LR";',
                 '  node [shape=box, fontsize=9];']
        for node in kept.values():
            label = (f"{node.entity}\\n{node.callback}\\n"
                     f"t={node.time:.6f} seq={node.seq}")
            lines.append(f'  n{node.seq} [label="{label}"];')
        for src, dst, kind in sorted(self.edges):
            if src in kept and dst in kept:
                style = styles.get(kind, "")
                lines.append(f'  n{src} -> n{dst} [{style}];')
        elided = len(self.nodes) - len(kept)
        if elided > 0:
            lines.append(f'  elided [shape=plaintext, '
                         f'label="... {elided} more events"];')
        lines.append("}")
        return "\n".join(lines)

    def to_perfetto(self, max_nodes: int = 500_000) -> Dict[str, Any]:
        """Chrome/Perfetto ``trace_event`` document.

        One track (tid) per entity; each executed event becomes a slice
        at its simulated time (microseconds), and every scheduling edge
        becomes a flow arrow so the causal structure is visible in the
        viewer.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[str, int] = {}
        kept = dict(list(self.nodes.items())[:max_nodes])
        for node in kept.values():
            tid = tids.setdefault(node.entity, len(tids) + 1)
            ts = node.time * 1e6
            events.append({
                "name": node.callback, "ph": "X", "cat": "sched",
                "ts": ts, "dur": 0.01, "pid": 1, "tid": tid,
                "args": {"seq": node.seq, "parent": node.parent,
                         "prio": node.prio},
            })
        for src, dst, kind in sorted(self.edges):
            if kind == "po" or src not in kept or dst not in kept:
                continue
            src_node, dst_node = self.nodes[src], self.nodes[dst]
            flow_id = (src << 20) ^ dst
            events.append({
                "name": kind, "ph": "s", "cat": "hb", "id": flow_id,
                "ts": src_node.time * 1e6, "pid": 1,
                "tid": tids[src_node.entity],
            })
            events.append({
                "name": kind, "ph": "f", "bp": "e", "cat": "hb",
                "id": flow_id, "ts": dst_node.time * 1e6, "pid": 1,
                "tid": tids[dst_node.entity],
            })
        for entity, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": entity},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.hb",
                "truncated": len(self.nodes) > len(kept),
            },
        }

    def write_dot(self, path: str, max_nodes: int = 2000) -> None:
        """Write :meth:`to_dot` output to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_dot(max_nodes=max_nodes))
            fh.write("\n")

    def write_perfetto(self, path: str, max_nodes: int = 500_000) -> None:
        """Write :meth:`to_perfetto` output as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_perfetto(max_nodes=max_nodes), fh)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.nodes)


def build_graph(records: Iterable[Any]) -> HBGraph:
    """Build an :class:`HBGraph` from a record iterable (live recorder
    contents or an offline trace via
    :func:`repro.audit.replay.iter_trace`)."""
    return HBGraph().observe_all(records)
