"""Label-aware metric instruments: counters, gauges, histograms.

A :class:`MetricsRegistry` holds one *point* per ``(name, labels)``
pair.  Points are plain accumulator objects handed back to the caller,
so the hot path after the first lookup is a single attribute update —
no string formatting, no allocation.

Histograms use **fixed log-spaced buckets** (:func:`log_spaced_edges`):
every collector in every worker builds the identical bucket layout, so
merging histograms across shards is element-wise integer addition and
the merged aggregate is bit-identical whatever the shard layout or
backend (the determinism contract ``repro.exec`` extends to telemetry).

Units are advisory metadata keyed by metric *name*.  Time-valued units
(``ns``/``us``/``ms``/``s``) mark a metric as wall-clock derived; the
deterministic snapshot (:meth:`repro.telemetry.collector.
TelemetryCollector.deterministic_snapshot`) excludes those, because
wall time is the one thing a parallel run legitimately changes.
"""

from __future__ import annotations

import math
from bisect import bisect_left

#: Units that mark a metric as wall-clock derived (nondeterministic).
TIME_UNITS = frozenset({"ns", "us", "ms", "s"})

#: Units excluded from the deterministic snapshot: wall-clock derived
#: metrics plus execution-layout metrics (``layout`` — values like the
#: chunk count that legitimately change with jobs/chunking without
#: affecting any published number).
NONDETERMINISTIC_UNITS = TIME_UNITS | frozenset({"layout"})


def log_spaced_edges(lo=1.0, hi=1e10, per_decade=3):
    """Geometric bucket edges from ``lo`` to ``hi`` inclusive.

    ``per_decade`` edges per factor of ten.  The default span (1 to
    1e10) covers nanosecond timings from 1 ns to 10 s and count-valued
    observations up to ten billion with ~2.2x relative resolution.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = int(round(math.log10(hi / lo) * per_decade))
    return tuple(lo * 10.0 ** (k / per_decade) for k in range(n + 1))


#: The fixed default bucket layout every collector shares.
DEFAULT_EDGES = log_spaced_edges(1.0, 1e10, per_decade=3)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket distribution of observed values.

    Bucket ``i`` counts observations in ``(edges[i-1], edges[i]]``;
    bucket 0 additionally absorbs everything at or below ``edges[0]``
    and the final bucket everything above ``edges[-1]``.
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges=None):
        self.edges = DEFAULT_EDGES if edges is None else tuple(
            float(e) for e in edges)
        if len(self.edges) < 1 or any(
                b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        """Fold one observation into the distribution."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self):
        """Mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Bucket-resolution percentile estimate (upper bucket edge).

        Clamped into ``[min, max]`` so the estimate never leaves the
        observed range; returns 0 when the histogram is empty.
        """
        if not self.count:
            return 0.0
        target = self.count * min(max(q, 0.0), 100.0) / 100.0
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= target and n:
                upper = self.edges[i] if i < len(self.edges) else self.max
                return min(max(upper, self.min), self.max)
        return self.max

    def merge(self, other):
        """Element-wise fold of another histogram with the same edges."""
        if tuple(other.edges) != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


def percentiles(data, qs=(50.0, 95.0)):
    """Percentile estimates for ``data`` at each ``q`` in ``qs`` (0-100).

    One quantile helper for every module that reports latency — the
    exporters, ``service.health``/``service.loadtest`` and the
    ``repro.obs`` analysis layer all come through here instead of
    rolling their own bucket walks.  Accepts three shapes:

    * a :class:`Histogram` instrument — bucket-resolution estimates via
      :meth:`Histogram.percentile`;
    * a histogram *snapshot dict* (``edges``/``counts``/``count`` plus
      ``min``/``max``, as produced by :meth:`MetricsRegistry.snapshot`
      or read back from a JSONL export) — the same bucket walk, clamped
      into the observed range;
    * any other sequence of numbers — the exact value via sorted-order
      linear interpolation (the ``numpy.percentile`` default method).

    Returns a tuple of floats, one per requested ``q``; empty inputs
    yield all zeros.
    """
    qs = tuple(float(q) for q in qs)
    if hasattr(data, "percentile"):
        return tuple(float(data.percentile(q)) for q in qs)
    if isinstance(data, dict):
        return tuple(_snapshot_percentile(data, q) for q in qs)
    values = sorted(float(v) for v in data)
    if not values:
        return tuple(0.0 for _ in qs)
    out = []
    for q in qs:
        pos = (len(values) - 1) * min(max(q, 0.0), 100.0) / 100.0
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        out.append(values[lo] + (values[hi] - values[lo]) * (pos - lo))
    return tuple(out)


def _snapshot_percentile(item, q):
    """Bucket-walk percentile of a histogram snapshot dict."""
    count = item.get("count", 0)
    if not count:
        return 0.0
    lo = item.get("min")
    hi = item.get("max")
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    target = count * min(max(q, 0.0), 100.0) / 100.0
    running = 0
    edges = item["edges"]
    for i, n in enumerate(item["counts"]):
        running += n
        if running >= target and n:
            upper = edges[i] if i < len(edges) else hi
            return float(min(max(upper, lo), hi))
    return float(hi)


def _labels_key(labels):
    """Canonical (sorted) label tuple used as part of the point key."""
    return tuple(sorted(labels.items()))


def _sort_key(key):
    name, labels = key
    return (name, tuple((k, repr(v)) for k, v in labels))


class MetricsRegistry:
    """One accumulator point per ``(name, labels)`` pair."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._units = {}

    def _point(self, store, factory, name, unit, labels):
        key = (str(name), _labels_key(labels))
        point = store.get(key)
        if point is None:
            point = store[key] = factory()
            if unit is not None:
                self._units.setdefault(key[0], str(unit))
        return point

    def counter(self, name, unit=None, **labels):
        """The :class:`Counter` for ``(name, labels)`` (created lazily)."""
        return self._point(self._counters, Counter, name, unit, labels)

    def gauge(self, name, unit=None, **labels):
        """The :class:`Gauge` for ``(name, labels)`` (created lazily)."""
        return self._point(self._gauges, Gauge, name, unit, labels)

    def histogram(self, name, unit=None, edges=None, **labels):
        """The :class:`Histogram` for ``(name, labels)`` (created lazily)."""
        return self._point(self._histograms,
                           lambda: Histogram(edges=edges), name, unit, labels)

    # -- reading -----------------------------------------------------------

    def counter_values(self, name):
        """``{labels_tuple: value}`` for every point of counter ``name``."""
        return {labels: c.value for (n, labels), c in self._counters.items()
                if n == name}

    def unit(self, name):
        """The advisory unit registered for metric ``name`` (or None)."""
        return self._units.get(name)

    def snapshot(self):
        """A plain-dict (JSON-able, picklable) view of every point."""
        out = {"counters": [], "gauges": [], "histograms": []}
        for (name, labels), c in sorted(self._counters.items(),
                                        key=lambda kv: _sort_key(kv[0])):
            out["counters"].append({"name": name, "labels": dict(labels),
                                    "unit": self._units.get(name),
                                    "value": c.value})
        for (name, labels), g in sorted(self._gauges.items(),
                                        key=lambda kv: _sort_key(kv[0])):
            out["gauges"].append({"name": name, "labels": dict(labels),
                                  "unit": self._units.get(name),
                                  "value": g.value})
        for (name, labels), h in sorted(self._histograms.items(),
                                        key=lambda kv: _sort_key(kv[0])):
            out["histograms"].append({
                "name": name, "labels": dict(labels),
                "unit": self._units.get(name),
                "edges": list(h.edges), "counts": list(h.counts),
                "count": h.count, "total": h.total,
                "min": None if h.count == 0 else h.min,
                "max": None if h.count == 0 else h.max})
        return out

    def merge(self, snapshot):
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters and histograms add; gauges take the incoming value
        (merge order is the executor's deterministic task order, so the
        result is reproducible).
        """
        for item in snapshot.get("counters", ()):
            self.counter(item["name"], unit=item.get("unit"),
                         **item["labels"]).inc(item["value"])
        for item in snapshot.get("gauges", ()):
            self.gauge(item["name"], unit=item.get("unit"),
                       **item["labels"]).set(item["value"])
        for item in snapshot.get("histograms", ()):
            h = self.histogram(item["name"], unit=item.get("unit"),
                               edges=item["edges"], **item["labels"])
            incoming = Histogram(edges=item["edges"])
            incoming.counts = list(item["counts"])
            incoming.count = item["count"]
            incoming.total = item["total"]
            if item.get("min") is not None:
                incoming.min = item["min"]
            if item.get("max") is not None:
                incoming.max = item["max"]
            h.merge(incoming)
