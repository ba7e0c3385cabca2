"""Post-mortem flight recorder.

Keeps a bounded ring of the most recent trace records (every kind, not
just lineage events) and, when asked — first violation, simulator
crash, or explicit finalize — writes a post-mortem bundle:

* ``violations.json`` — the structured violations with causal chains;
* ``postmortem.txt`` — human-readable report: each violation, its
  packet's causal chain, and the ASCII causal timeline of the first
  offending flow;
* ``ring.jsonl`` — the raw event ring in trace JSONL format, replayable
  with ``python -m repro audit --replay``.

The recorder only ever dumps once per run; later violations are still
collected by the auditor but the bundle freezes the state around the
first failure, which is the one worth debugging.  The bundle is frozen
as text when it fires and written when there is a directory: a fan-out
cell's session has none, so it ships :attr:`FlightRecorder.bundle` and
the run's session writes the first one it is shipped
(:meth:`FlightRecorder.adopt`).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, Optional

from repro.telemetry.export import record_to_dict
from repro.telemetry.schema import SCHEMA_VERSION

__all__ = ["FlightRecorder", "write_bundle"]

DEFAULT_RING_SIZE = 4000


class FlightRecorder:
    """Bounded event ring + one-shot post-mortem bundle writer."""

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        self._ring: Deque = deque(maxlen=ring_size)
        self.records_seen = 0
        #: The frozen bundle, ``{file name: text}``, once fired.
        self.bundle: Optional[Dict[str, str]] = None
        #: Whether, and into which directory, the bundle was written.
        self.dumped = False
        self.bundle_dir: Optional[str] = None

    def observe(self, record) -> None:
        """Append one trace record to the ring."""
        self._ring.append(record)
        self.records_seen += 1

    def dump(self, out_dir: Optional[str], violations, tracer=None,
             reason: str = "violation") -> None:
        """Freeze the post-mortem bundle, and write it into ``out_dir``
        when given; no-op after the first dump."""
        if self.bundle is not None:
            return
        doc = {"schema_version": SCHEMA_VERSION, "reason": reason,
               "violations": [v.to_dict() for v in violations]}
        self.adopt({
            "violations.json": json.dumps(doc, indent=2, sort_keys=True)
            + "\n",
            "ring.jsonl": "".join(
                json.dumps(record_to_dict(record), sort_keys=True,
                           separators=(",", ":"), default=str) + "\n"
                for record in self._ring),
            "postmortem.txt": self._report(violations, tracer, reason),
        }, out_dir)

    def adopt(self, bundle: Optional[Dict[str, str]],
              out_dir: Optional[str]) -> None:
        """Make ``bundle`` (if any) this recorder's one bundle unless it
        has one, writing it into ``out_dir`` when given."""
        if self.bundle is None and bundle is not None:
            self.bundle = bundle
            if out_dir is not None:
                write_bundle(out_dir, bundle)
                self.dumped, self.bundle_dir = True, out_dir

    def _report(self, violations, tracer, reason: str) -> str:
        lines = [
            "repro.audit post-mortem bundle",
            f"reason: {reason}",
            f"events in ring: {len(self._ring)} "
            f"(of {self.records_seen} observed)",
            f"violations: {len(violations)}",
            "",
        ]
        for violation in violations:
            lines.append(violation.render())
            if violation.chain:
                lines.append("  causal chain:")
                lines.extend(f"    {line}" for line in violation.chain)
            lines.append("")
        flow = next((v.flow for v in violations if v.flow is not None), None)
        if tracer is not None and flow is not None:
            lines.append(tracer.render_flow(flow))
            lines.append("")
        return "\n".join(lines)


def write_bundle(out_dir: str, bundle: Dict[str, str]) -> None:
    """Write a frozen bundle's files into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in bundle.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
