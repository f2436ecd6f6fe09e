"""Process-wide metrics registry: counters, gauges, histograms.

Aggregate "how often / how much" companions to the per-interval spans
of :mod:`repro.obs.tracing`: cache hit rates, hypotheses evaluated,
degradation-ladder steps, retry backoffs.  Metrics are always
on -- an increment is a dict update under a lock, cheap enough for
every hot path in this codebase (events fire per frame / per chunk,
never per pixel) -- and are only materialized when someone asks for a
:meth:`~MetricsRegistry.snapshot`.

Names are dotted strings (``prep_cache.hit``, ``search.certificate_solves``);
the stable set used by the pipeline is tabulated in
``docs/observability.md``.  The serving layer's fault-tolerance
machinery reports under ``serve.lease.*`` (granted / renewed / reaped /
stale_completions), ``serve.retry.*`` (scheduled, backoff_seconds),
``serve.dead.*`` (total, jobs, requeued), ``serve.journal.*`` (records,
compactions, torn_discarded), ``serve.workers.restarted`` and
``serve.chaos.*`` -- see ``docs/serving.md``.

Histograms are **fixed-bucket**: every sample lands in one of a set of
cumulative ``le`` buckets (Prometheus semantics) chosen per metric name
by :meth:`~MetricsRegistry.set_buckets` rules, alongside the exact
count/sum/min/max.  Snapshots derive ``mean`` and the interpolated
``p50``/``p95``/``p99`` quantiles from the buckets, and
:mod:`repro.obs.prom` renders the same snapshot as Prometheus text
exposition for ``GET /metrics`` scrapes.

Fork-pool workers run with a freshly reset registry (see
:func:`repro.obs.worker_init`), serialize their counts with
:meth:`~MetricsRegistry.drain` and the parent folds them back in with
:meth:`~MetricsRegistry.merge_snapshot` -- every event is counted
exactly once, attributed to the run, regardless of worker count.
Merging is bucket-wise (cumulative counts add), derived keys
(``mean``/``p50``/``p95``/``p99``) are recomputed rather than folded
in, and zero-count entries are skipped so an empty worker can never
corrupt the parent's extremes.
"""

from __future__ import annotations

import bisect
import fnmatch
import json
import math
import threading

#: Default cumulative bucket upper bounds for duration-like histograms
#: (seconds).  Spans 1 ms .. 2 min, the range of everything this repo
#: times: per-chunk kernels up to whole serve jobs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Bucket bounds for byte-sized histograms (``*_bytes``): 1 KiB .. 256 MiB.
BYTE_BUCKETS: tuple[float, ...] = (
    1024.0, 8192.0, 65536.0, 524288.0, 4194304.0, 33554432.0, 268435456.0,
)

#: Derived histogram-snapshot keys -- recomputed on read, never merged.
DERIVED_KEYS = ("mean", "p50", "p95", "p99")


def format_le(bound: float) -> str:
    """Stable string form of a bucket upper bound (``+Inf`` for the top)."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _quantile_from_buckets(
    bounds: tuple[float, ...],
    cumulative: list[float],
    count: float,
    q: float,
    lo: float,
    hi: float,
) -> float:
    """Prometheus-style ``histogram_quantile``: linear interpolation
    inside the bucket holding rank ``q * count``, clamped to the exact
    observed ``[min, max]`` so small-sample estimates stay sane."""
    rank = q * count
    prev_cum = 0.0
    prev_edge = lo
    for bound, cum in zip((*bounds, math.inf), cumulative):
        if cum >= rank and cum > prev_cum:
            upper = hi if math.isinf(bound) else bound
            frac = (rank - prev_cum) / (cum - prev_cum)
            value = prev_edge + (upper - prev_edge) * frac
            return min(max(value, lo), hi)
        prev_cum = cum
        if not math.isinf(bound):
            prev_edge = max(lo, bound)
    return hi


class MetricsRegistry:
    """Thread-safe named counters, gauges and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        #: name -> {"count","sum","min","max","bounds","per_bucket"} where
        #: per_bucket has len(bounds)+1 slots (the last is +Inf).
        self._histograms: dict[str, dict] = {}
        #: (pattern, bounds) bucket rules, first match wins.  Patterns
        #: are exact names or fnmatch globs (``serve.*``, ``*_bytes``).
        self._bucket_rules: list[tuple[str, tuple[float, ...]]] = [
            ("*_bytes", BYTE_BUCKETS),
        ]

    # -- configuration ----------------------------------------------------------------

    def set_buckets(self, pattern: str, bounds: tuple[float, ...] | list[float]) -> None:
        """Register bucket bounds for histogram names matching ``pattern``.

        ``pattern`` is an exact metric name or an fnmatch glob; the most
        recently registered rule wins.  Bounds must be strictly
        increasing and finite (the ``+Inf`` bucket is implicit).  Only
        affects histograms created after the call -- pick buckets before
        the first :meth:`observe` of a name.
        """
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be non-empty and finite")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        with self._lock:
            self._bucket_rules.insert(0, (pattern, bounds))

    def _bounds_for(self, name: str) -> tuple[float, ...]:
        for pattern, bounds in self._bucket_rules:
            if name == pattern or fnmatch.fnmatchcase(name, pattern):
                return bounds
        return DEFAULT_BUCKETS

    # -- recording ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to the latest observed value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        value = float(value)
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                bounds = self._bounds_for(name)
                h = self._histograms[name] = {
                    "count": 0.0, "sum": 0.0, "min": value, "max": value,
                    "bounds": bounds, "per_bucket": [0.0] * (len(bounds) + 1),
                }
            h["count"] += 1.0
            h["sum"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)
            h["per_bucket"][bisect.bisect_left(h["bounds"], value)] += 1.0

    # -- reading --------------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    @staticmethod
    def _histogram_snapshot(h: dict) -> dict:
        count = h["count"]
        cumulative: list[float] = []
        running = 0.0
        for per in h["per_bucket"]:
            running += per
            cumulative.append(running)
        entry = {
            "count": count,
            "sum": h["sum"],
            "min": h["min"],
            "max": h["max"],
            "mean": h["sum"] / count if count else 0.0,
            "buckets": {
                format_le(bound): cum
                for bound, cum in zip((*h["bounds"], math.inf), cumulative)
            },
        }
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            entry[key] = (
                _quantile_from_buckets(
                    h["bounds"], cumulative, count, q, h["min"], h["max"]
                )
                if count
                else 0.0
            )
        return entry

    def snapshot(self) -> dict:
        """JSON-ready state: ``{"counters": .., "gauges": .., "histograms": ..}``.

        Histogram entries carry the exact ``count``/``sum``/``min``/
        ``max``, the cumulative ``buckets`` (``le`` -> count, Prometheus
        semantics) and the derived ``mean``/``p50``/``p95``/``p99``.
        Keys are sorted so two identical registries serialize
        identically.
        """
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            histograms = {
                name: self._histogram_snapshot(h)
                for name, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Stable one-metric-per-line text dump (for terminals and tests)."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            lines.append(f"counter   {name} = {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge     {name} = {value:g}")
        for name, h in snap["histograms"].items():
            lines.append(
                f"histogram {name} = count {h['count']:g}, mean {h['mean']:.6g}, "
                f"p50 {h['p50']:.6g}, p95 {h['p95']:.6g}, "
                f"min {h['min']:.6g}, max {h['max']:.6g}"
            )
        return "\n".join(lines)

    # -- merging / lifecycle --------------------------------------------------------

    @staticmethod
    def _incoming_buckets(h: dict) -> tuple[tuple[float, ...], list[float]] | None:
        """Parse a snapshot entry's cumulative buckets back into
        ``(bounds, per-bucket counts)``; None when absent/malformed."""
        buckets = h.get("buckets")
        if not isinstance(buckets, dict) or "+Inf" not in buckets:
            return None
        try:
            bounds = tuple(sorted(float(k) for k in buckets if k != "+Inf"))
            cumulative = [float(buckets[format_le(b)]) for b in bounds]
            cumulative.append(float(buckets["+Inf"]))
        except (KeyError, TypeError, ValueError):
            return None
        per = [cumulative[0]]
        per.extend(b - a for a, b in zip(cumulative, cumulative[1:]))
        if any(p < 0 for p in per):
            return None
        return bounds, per

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms accumulate; gauges take the incoming
        value (last writer wins, which is what a parent absorbing a
        worker's final state wants).  Histogram merging is bucket-wise
        when the bucket bounds line up (the normal case: both sides use
        the same rules); on a bounds mismatch only the exact scalar
        stats merge and the incoming bucket detail is dropped.  Derived
        keys (``mean``/``p50``/``p95``/``p99``) are recomputed at the
        next snapshot -- never folded in -- and zero-count entries are
        skipped entirely so they cannot drag ``min``/``max`` around.
        """
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            for name, h in snap.get("histograms", {}).items():
                if not h.get("count"):
                    continue  # empty entry: nothing to add, sentinel min/max
                incoming = self._incoming_buckets(h)
                mine = self._histograms.get(name)
                if mine is None:
                    if incoming is not None:
                        bounds, per = incoming
                    else:  # legacy bucketless snapshot: all mass in +Inf
                        bounds = self._bounds_for(name)
                        per = [0.0] * len(bounds) + [float(h["count"])]
                    self._histograms[name] = {
                        "count": float(h["count"]), "sum": float(h["sum"]),
                        "min": h["min"], "max": h["max"],
                        "bounds": bounds, "per_bucket": list(per),
                    }
                else:
                    mine["count"] += h["count"]
                    mine["sum"] += h["sum"]
                    mine["min"] = min(mine["min"], h["min"])
                    mine["max"] = max(mine["max"], h["max"])
                    if incoming is not None and incoming[0] == mine["bounds"]:
                        for index, per in enumerate(incoming[1]):
                            mine["per_bucket"][index] += per
                    else:  # bounds mismatch: count the mass, lose the detail
                        mine["per_bucket"][-1] += float(h["count"])

    def drain(self) -> dict:
        """Snapshot then clear -- what a pool worker ships back per task."""
        snap = self.snapshot()
        self.reset()
        return snap

    def reset(self) -> None:
        """Clear all recorded values (bucket rules survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry every instrumented module talks to.
METRICS = MetricsRegistry()
