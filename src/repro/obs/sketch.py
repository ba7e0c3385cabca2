"""Mergeable, bounded-error distribution sketches.

The paper's headline results are FCT *distributions*, and a fan-out
cell should hand back a summary that merges, not its per-flow records.
Chaos sweep's cells each carry an FCT sketch (merged into the report's
quantile line), ``--breakdown`` keeps one sketch per critical-path
component, and Fig. 12's cells ship
:class:`~repro.obs.aggregate.FlowStats`, built on both structures:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch with a configured *relative* accuracy ``alpha``: a quantile
  query returns a value within ``alpha * true_value`` of the true
  rank-``q`` item.  Bucket index for a value ``v`` is
  ``ceil(log_gamma(v))`` with ``gamma = (1 + alpha) / (1 - alpha)``, so
  inserts are O(1) dict updates and the memory footprint is
  O(log(max/min) / alpha) regardless of how many values stream through.
* :class:`CountHistogram` — an exact histogram over small non-negative
  integers (retransmission counts, timeouts), since those need no
  approximation to stay bounded.

Both are **mergeable**: ``merge()`` adds bucket counts, which is
associative and commutative, and every serialization
(:meth:`to_dict` / canonical JSON) is built only from order-independent
state (integer counts keyed by bucket index, exact min/max), so the
serialized form — and therefore any fingerprint over it — is
bit-identical regardless of how many shards the data was split into or
the order their sketches were merged.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "CountHistogram",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "canonical_json",
]

#: 1% relative error: tight enough that a 100 ms p99 is reported within
#: +/-1 ms, coarse enough that a 9-decade FCT range needs ~1040 buckets.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values below this are counted in the zero bucket: FCTs are seconds,
#: so anything under a nanosecond is measurement noise, and a positive
#: floor keeps the bucket index range (and memory) bounded.
MIN_TRACKABLE = 1e-9

SKETCH_SCHEMA = "repro.obs.sketch/1"
HISTOGRAM_SCHEMA = "repro.obs.histogram/1"


def canonical_json(doc: object) -> str:
    """The canonical JSON form fingerprints hash: sorted keys, compact
    separators, no whitespace ambiguity."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class QuantileSketch:
    """A DDSketch-style log-bucketed quantile sketch.

    Parameters
    ----------
    relative_accuracy:
        The guaranteed relative error ``alpha`` in (0, 1): quantile
        queries return a value within ``alpha`` (relatively) of the true
        rank item.
    """

    __slots__ = ("relative_accuracy", "_gamma", "_log_gamma", "_buckets",
                 "_zeros", "_count", "_min", "_max")

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
                 ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ConfigurationError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def insert(self, value: float, count: int = 1) -> None:
        """Insert ``value`` ``count`` times.  Values must be finite and
        non-negative (FCTs, retransmit latencies, queue waits)."""
        if count <= 0:
            return
        if not math.isfinite(value) or value < 0.0:
            raise ConfigurationError(
                f"sketch values must be finite and >= 0, got {value!r}")
        self._count += count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value < MIN_TRACKABLE:
            self._zeros += count
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + count

    def extend(self, values: Iterable[float]) -> None:
        """Insert every value of an iterable."""
        for value in values:
            self.insert(value)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place; returns self).

        Associative and commutative: bucket counts add, min/max take
        extrema, so any merge tree over the same inputs produces the
        same state bit for bit.
        """
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError("can only merge QuantileSketch")
        if other.relative_accuracy != self.relative_accuracy:
            raise ConfigurationError(
                "cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})")
        for key, count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + count
        self._zeros += other._zeros
        self._count += other._count
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"],
               relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
               ) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``."""
        out = cls(relative_accuracy)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Total inserted values."""
        return self._count

    @property
    def minimum(self) -> Optional[float]:
        """Exact smallest inserted value (None when empty)."""
        return self._min

    @property
    def maximum(self) -> Optional[float]:
        """Exact largest inserted value (None when empty)."""
        return self._max

    def bucket_value(self, key: int) -> float:
        """The representative value of bucket ``key``: the geometric
        bucket midpoint ``2 * gamma^key / (gamma + 1)``, which is within
        ``alpha`` (relatively) of every value the bucket holds."""
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def rank_index(self, q: float) -> int:
        """The 0-based rank a quantile query targets (shared with the
        property tests so the guarantee is checked against the exact
        item the sketch aims for)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        return int(round(q * (self._count - 1)))

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], within the configured
        relative accuracy of the true rank item.  Raises on an empty
        sketch."""
        if self._count == 0:
            raise ConfigurationError("quantile of an empty sketch")
        rank = self.rank_index(q)
        if rank < self._zeros:
            return 0.0
        cumulative = self._zeros
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if cumulative > rank:
                return self.bucket_value(key)
        # Unreachable when counts are consistent; fall back to the max.
        return self._max if self._max is not None else 0.0

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        """Several quantiles in one pass order (convenience)."""
        return [self.quantile(q) for q in qs]

    def cdf_points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """Approximate ``(value, percent <= value)`` pairs for figure
        CDFs, downsampled to at most ``max_points`` buckets."""
        if self._count == 0:
            return []
        points: List[Tuple[float, float]] = []
        cumulative = self._zeros
        if self._zeros:
            points.append((0.0, 100.0 * cumulative / self._count))
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            points.append((self.bucket_value(key),
                           100.0 * cumulative / self._count))
        if len(points) > max_points:
            step = len(points) / max_points
            points = [points[int(i * step)] for i in range(max_points - 1)]
            points.append((self._max if self._max is not None else 0.0, 100.0))
        return points

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON shape.  Only order-independent state (sorted
        integer bucket counts, exact extrema), so two sketches holding
        the same multiset of values serialize identically no matter how
        they were merged."""
        return {
            "schema": SKETCH_SCHEMA,
            "relative_accuracy": self.relative_accuracy,
            "count": self._count,
            "zeros": self._zeros,
            "min": self._min,
            "max": self._max,
            "buckets": [[key, self._buckets[key]]
                        for key in sorted(self._buckets)],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        if doc.get("schema") != SKETCH_SCHEMA:
            raise ConfigurationError(
                f"not a sketch document (schema={doc.get('schema')!r})")
        sketch = cls(float(doc["relative_accuracy"]))
        sketch._count = int(doc["count"])
        sketch._zeros = int(doc["zeros"])
        sketch._min = None if doc["min"] is None else float(doc["min"])
        sketch._max = None if doc["max"] is None else float(doc["max"])
        sketch._buckets = {int(k): int(c) for k, c in doc["buckets"]}
        return sketch

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON serialization."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch(alpha={self.relative_accuracy}, "
                f"count={self._count}, buckets={len(self._buckets)})")


class CountHistogram:
    """Exact mergeable histogram over non-negative integers.

    Retransmission/timeout counts are tiny integers, so the histogram is
    exact: a dict of value -> occurrences.  Merging adds counts —
    associative, commutative, and bit-identically serialized like the
    quantile sketch.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0

    def insert(self, value: int, count: int = 1) -> None:
        """Record ``value`` ``count`` times."""
        if count <= 0:
            return
        value = int(value)
        if value < 0:
            raise ConfigurationError(
                f"histogram values must be >= 0, got {value}")
        self._counts[value] = self._counts.get(value, 0) + count
        self._total += count

    def merge(self, other: "CountHistogram") -> "CountHistogram":
        """Fold ``other`` into this histogram (in place; returns self)."""
        for value, count in other._counts.items():
            self._counts[value] = self._counts.get(value, 0) + count
        self._total += other._total
        return self

    @property
    def count(self) -> int:
        """Total recorded observations."""
        return self._total

    @property
    def total(self) -> int:
        """Sum of value * occurrences (e.g. total retransmissions)."""
        return sum(v * c for v, c in self._counts.items())

    def mean(self) -> float:
        """Mean recorded value (0.0 when empty)."""
        return self.total / self._total if self._total else 0.0

    def fraction_at_least(self, threshold: int) -> float:
        """Fraction of observations >= ``threshold`` (Fig. 5's axes)."""
        if not self._total:
            return 0.0
        hits = sum(c for v, c in self._counts.items() if v >= threshold)
        return hits / self._total

    def to_dict(self) -> Dict[str, object]:
        """Compact, merge-order-independent JSON shape."""
        return {
            "schema": HISTOGRAM_SCHEMA,
            "count": self._total,
            "counts": [[value, self._counts[value]]
                       for value in sorted(self._counts)],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "CountHistogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        if doc.get("schema") != HISTOGRAM_SCHEMA:
            raise ConfigurationError(
                f"not a histogram document (schema={doc.get('schema')!r})")
        hist = cls()
        hist._total = int(doc["count"])
        hist._counts = {int(v): int(c) for v, c in doc["counts"]}
        return hist

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON serialization."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return self._total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CountHistogram(count={self._total})"
