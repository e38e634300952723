"""Named counters, gauges and histograms for the mapping pipeline.

A :class:`Metrics` registry creates instruments on first use, so
instrumented code never has to declare them up front::

    OBS.metrics.counter("dp.states_expanded").inc(len(matches))

Counters are monotone totals (matches attempted, DP states expanded,
lifecycle transitions); gauges hold the latest value of something
(partitioning levels, routed track count); histograms record an
observed distribution into fixed log-spaced buckets, so besides the
running count/sum/min/max they answer ``percentile(p)`` queries —
p50/p90/p99 of serve latencies, annealing deltas, per-cone match
counts.

Bucket scheme (shared by every histogram, so any two are mergeable):
boundary ``i`` sits at ``HIST_MIN * HIST_GROWTH**i`` with
``HIST_MIN = 1e-9`` and ``HIST_GROWTH = 2**0.25``, covering
``[1 ns, ~1.3e6)`` in :data:`HIST_BUCKETS` buckets.  Within a bucket a
percentile query answers the geometric midpoint (clamped to the
observed min/max), so the documented worst-case relative error of any
quantile is ``sqrt(HIST_GROWTH) - 1`` — about 9.1 % (see
:data:`HIST_REL_ERROR`).  Values at or below zero, and values beyond
the covered range, clamp into the first/last bucket; exact ``min`` /
``max`` / ``sum`` are tracked separately and are never bucketed.

Bucket counts serialise sparsely (``{"17": 3}``) inside
:meth:`Histogram.summary`, which is what lets per-process worker
reports merge bucket-exactly via :func:`merge_histogram_summaries` —
merging is associative and commutative because it only ever adds
counts.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "HIST_MIN",
    "HIST_GROWTH",
    "HIST_BUCKETS",
    "HIST_REL_ERROR",
    "bucket_index",
    "bucket_bounds",
    "bucket_value",
    "percentile_from_buckets",
    "merge_histogram_summaries",
    "merge_metrics_snapshots",
    "histogram_delta",
]

#: Lower boundary of bucket 0 (1 nanosecond when observing seconds).
HIST_MIN = 1e-9
#: Geometric growth factor between consecutive bucket boundaries.
HIST_GROWTH = 2.0 ** 0.25
#: Number of buckets; the last upper bound is HIST_MIN * GROWTH**BUCKETS.
HIST_BUCKETS = 200
#: Documented worst-case relative error of a percentile query: answers
#: are geometric bucket midpoints, so they are off by at most half a
#: bucket in log space.
HIST_REL_ERROR = math.sqrt(HIST_GROWTH) - 1.0

_LOG_GROWTH = math.log(HIST_GROWTH)
#: Epsilon nudging values sitting exactly on a boundary into the bucket
#: whose *lower* bound they are (floating log() rounds either way).
_BOUNDARY_EPS = 1e-9


def bucket_index(value: float) -> int:
    """The bucket a value falls in: ``[lo, hi)`` with log-spaced bounds.

    Values at or below :data:`HIST_MIN` collapse into bucket 0; values
    at or above the top boundary clamp into the last bucket.
    """
    if value <= HIST_MIN or value != value:  # NaN collapses into 0 too
        return 0
    if math.isinf(value):
        return HIST_BUCKETS - 1
    # Subtract logs instead of dividing first: value/HIST_MIN overflows
    # to inf for values above ~1e299 and floor(inf) raises.
    idx = int(math.floor((math.log(value) - math.log(HIST_MIN))
                         / _LOG_GROWTH + _BOUNDARY_EPS))
    if idx < 0:
        return 0
    if idx >= HIST_BUCKETS:
        return HIST_BUCKETS - 1
    return idx


def bucket_bounds(index: int) -> "tuple[float, float]":
    """The ``[lo, hi)`` boundaries of bucket ``index``."""
    lo = HIST_MIN * HIST_GROWTH ** index
    return lo, lo * HIST_GROWTH


def bucket_value(index: int) -> float:
    """The representative (geometric midpoint) value of a bucket."""
    lo, hi = bucket_bounds(index)
    return math.sqrt(lo * hi)


def percentile_from_buckets(
    buckets: Dict[str, int],
    count: int,
    p: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """The ``p``-th percentile (``p`` in ``[0, 100]``) of bucketed data.

    Walks the sparse bucket counts in index order until the cumulative
    count reaches ``ceil(p/100 * count)`` and answers that bucket's
    geometric midpoint, clamped to ``[lo, hi]`` when the exact observed
    extremes are known (they always are for a live
    :class:`Histogram`).  Returns 0.0 for empty data.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    if count <= 0 or not buckets:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * count))
    items = sorted((int(key), n) for key, n in buckets.items())
    cumulative = 0
    value = 0.0
    for index, n in items:
        cumulative += n
        if cumulative >= rank:
            value = bucket_value(index)
            break
    else:  # counts out of sync with ``count``: answer the top bucket
        value = bucket_value(items[-1][0])
    if lo is not None:
        value = max(value, lo)
    if hi is not None:
        value = min(value, hi)
    return value


def merge_histogram_summaries(
    into: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold histogram summary ``other`` into ``into`` (returned).

    Tolerant by design: either side may be an *old-schema* summary
    (count/mean/min/max only, no buckets — e.g. a report written by an
    earlier version or a hand-built test fixture) or empty.  Counts and
    sums add, min/max combine ignoring empty sides, bucket counts add
    per index, and the percentiles are recomputed from the merged
    buckets when any are present.  Merging is associative because every
    field is either a sum, an extremum or derived from the sums.
    """
    a_count = int(into.get("count", 0) or 0)
    b_count = int(other.get("count", 0) or 0)
    count = a_count + b_count

    def _total(d: Dict[str, Any], n: int) -> float:
        if "sum" in d:
            return float(d["sum"])
        return float(d.get("mean", 0.0)) * n

    total = _total(into, a_count) + _total(other, b_count)
    mins = [d["min"] for d, n in ((into, a_count), (other, b_count))
            if n and d.get("min") is not None]
    maxs = [d["max"] for d, n in ((into, a_count), (other, b_count))
            if n and d.get("max") is not None]
    buckets: Dict[str, int] = dict(into.get("buckets") or {})
    for key, n in (other.get("buckets") or {}).items():
        buckets[key] = buckets.get(key, 0) + n

    into["count"] = count
    into["sum"] = total
    into["mean"] = total / count if count else 0.0
    into["min"] = min(mins) if mins else 0.0
    into["max"] = max(maxs) if maxs else 0.0
    if buckets:
        into["buckets"] = buckets
        lo = min(mins) if mins else None
        hi = max(maxs) if maxs else None
        for p, key in ((50.0, "p50"), (90.0, "p90"), (99.0, "p99")):
            into[key] = percentile_from_buckets(buckets, count, p, lo, hi)
    return into


#: Gauges that aggregate by ``max`` across processes (point-in-time
#: readings where summing would be meaningless — e.g. uptimes).
GAUGE_MAX_NAMES = frozenset({"serve.uptime_s"})


def merge_metrics_snapshots(snapshots) -> Dict[str, Any]:
    """Fold several :meth:`Metrics.snapshot`-shaped dicts into one.

    This is the cluster-aggregation primitive: the router scrapes each
    shard's ``metrics`` snapshot and folds them here.  Counters sum;
    gauges sum too (queue depths, cache entries — capacities add across
    shards) except the names in :data:`GAUGE_MAX_NAMES`, which take the
    max (uptime-style readings); histograms merge *bucket-exactly* via
    :func:`merge_histogram_summaries`, so the aggregate p50/p90/p99 are
    computed from the union of every shard's samples, not averaged from
    per-shard percentiles.  Snapshots with differing instrument sets
    merge fine — every name folds independently.
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {},
                              "histograms": {}}
    for snap in snapshots:
        if not snap:
            continue
        counters = merged["counters"]
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges = merged["gauges"]
        for name, value in (snap.get("gauges") or {}).items():
            if name in GAUGE_MAX_NAMES:
                gauges[name] = max(gauges.get(name, value), value)
            else:
                gauges[name] = gauges.get(name, 0) + value
        histograms = merged["histograms"]
        for name, summary in (snap.get("histograms") or {}).items():
            histograms[name] = merge_histogram_summaries(
                histograms.get(name) or {}, summary)
    return merged


def histogram_delta(
    hist: "Histogram", before: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Summary of what ``hist`` observed since the ``before`` snapshot.

    ``before`` is one entry of :meth:`Metrics.snapshot_histograms`
    (``None`` means the histogram did not exist yet).  Count, sum and
    bucket counts are exact differences, and percentiles come from the
    difference buckets.  The extremes are exact when nothing was
    observed before; otherwise they are the bounds of the lowest and
    highest difference buckets, clamped to the histogram's own extremes
    (within :data:`HIST_GROWTH` of the true values).  Returns ``None``
    when nothing was observed since.
    """
    if not before or not before.get("count"):
        return hist.summary() if hist.count else None
    count = hist.count - before["count"]
    if count <= 0:
        return None
    old = before.get("buckets") or {}
    delta = Histogram()
    for index, n in hist.buckets.items():
        moved = n - old.get(index, 0)
        if moved > 0:
            delta.buckets[index] = moved
    low, high = min(delta.buckets), max(delta.buckets)
    delta.count = count
    delta.total = hist.total - before.get("sum", 0.0)
    delta.min = hist.min if low == 0 else max(bucket_bounds(low)[0],
                                              hist.min)
    delta.max = (hist.max if high == HIST_BUCKETS - 1
                 else min(bucket_bounds(high)[1], hist.max))
    return delta.summary()


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """The most recent value of a quantity."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record ``value`` as the current reading."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the current reading by ``delta``."""
        self.value += delta


class Histogram:
    """Log-bucketed distribution with exact count/sum/min/max.

    ``observe`` drops each value into one of :data:`HIST_BUCKETS`
    log-spaced buckets (see the module docstring for the scheme);
    ``percentile(p)`` answers within :data:`HIST_REL_ERROR` of the true
    quantile.  Bucket storage is sparse, so an instrument that only
    ever sees a narrow range stays tiny.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Sparse bucket counts, keyed by int index.
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one sample: exact moments plus its log bucket."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of everything observed (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (``p`` in ``[0, 100]``), within
        :data:`HIST_REL_ERROR` of the true sample quantile (clamped to
        the exact observed min/max).  0.0 when nothing was observed."""
        return percentile_from_buckets(
            {str(k): v for k, v in self.buckets.items()},
            self.count, p, self.min, self.max,
        )

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot: moments, extremes, p50/p90/p99 and the
        sparse bucket counts (string keys, so the dict survives a JSON
        round trip unchanged and stays mergeable)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Metrics:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    def reset(self) -> None:
        """Drop every instrument (a fresh, empty registry)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # -- snapshots ----------------------------------------------------------

    def snapshot_counters(self) -> Dict[str, int]:
        """Counter totals by name."""
        return {name: c.value for name, c in self.counters.items()}

    def snapshot_histograms(self) -> Dict[str, Dict[str, Any]]:
        """Count, sum and bucket counts per histogram (no percentiles), the
        pre-flow state :func:`histogram_delta` subtracts."""
        return {
            name: {"count": h.count, "sum": h.total,
                   "buckets": dict(h.buckets)}
            for name, h in self.histograms.items()
        }

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as plain JSON-ready values."""
        return {
            "counters": self.snapshot_counters(),
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: h.summary() for name, h in self.histograms.items()
            },
        }
