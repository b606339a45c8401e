"""Lightweight metrics registry: counters, gauges, histograms.

The runtime's second observability channel (the first is the event trace):
cheap named aggregates suitable for steady-state monitoring.  Histograms
reuse the Welford accumulator of :class:`repro.utils.stats.RunningStats`,
so mean/variance stay numerically stable over arbitrarily long runs.

Names are dot-separated; a :meth:`MetricsRegistry.scope` returns a view
that prefixes every name, which is how the engine gives its controller a
``controller.*`` namespace without either side knowing about the other's
naming scheme::

    registry = MetricsRegistry()
    engine_metrics = registry.scope("engine")
    engine_metrics.counter("commits").inc(17)   # registry key "engine.commits"

Like the trace recorder, a module-level *active registry* lets the CLI
switch metrics on for code that builds engines internally.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager

from repro.errors import ObservabilityError
from repro.utils.stats import RunningStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "DEFAULT_BUCKETS",
    "active_metrics",
    "activate_metrics",
    "deactivate_metrics",
    "collecting_metrics",
]


def _geometric_125_ladder(lo_decade: int, hi_decade: int) -> tuple[float, ...]:
    """1-2-5 bucket bounds spanning ``[10^lo, 10^hi]`` decades."""
    bounds: list[float] = []
    for decade in range(lo_decade, hi_decade + 1):
        scale = 10.0 ** decade
        bounds.extend((1.0 * scale, 2.0 * scale, 5.0 * scale))
    return tuple(bounds)


#: default histogram bucket upper bounds — a 1-2-5 geometric ladder wide
#: enough for conflict ratios (~1e-3..1), allocations (1..1e4) and span
#: latencies in seconds (1e-9..1e3) alike, at ~2.6% worst-case relative
#: quantile error per bucket
DEFAULT_BUCKETS = _geometric_125_ladder(-9, 9)


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObservabilityError(f"counters only go up; inc({n})")
        self.value += int(n)

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Streaming distribution summary: Welford moments plus fixed buckets.

    The Welford accumulator gives exact streaming mean/std/extremes; the
    fixed geometric bucket ladder adds quantile estimates (p50/p95/p99)
    with bounded relative error, which moments alone cannot provide.
    Bucket bounds are *upper* bounds with cumulative ``le`` semantics, so
    the bucket table exports directly as OpenMetrics ``_bucket{le=...}``
    series (see :mod:`repro.obs.export`).
    """

    __slots__ = ("_stats", "_bounds", "_bucket_counts", "_overflow")

    def __init__(self, buckets: "tuple[float, ...] | None" = None) -> None:
        self._stats = RunningStats()
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                "histogram buckets must be a non-empty strictly increasing sequence"
            )
        self._bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._overflow = 0

    def observe(self, x: float) -> None:
        x = float(x)
        self._stats.push(x)
        i = bisect_left(self._bounds, x)
        if i < len(self._bounds):
            self._bucket_counts[i] += 1
        else:
            self._overflow += 1

    @property
    def count(self) -> int:
        return self._stats.count

    @property
    def mean(self) -> float:
        return self._stats.mean

    @property
    def std(self) -> float:
        return self._stats.std

    @property
    def min(self) -> float:
        return self._stats.min

    @property
    def max(self) -> float:
        return self._stats.max

    def buckets(self) -> "list[tuple[float, int]]":
        """Non-empty ``(upper_bound, count)`` pairs, plus ``(inf, n)`` overflow."""
        out = [
            (bound, n)
            for bound, n in zip(self._bounds, self._bucket_counts)
            if n
        ]
        if self._overflow:
            out.append((math.inf, self._overflow))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket table.

        Linear interpolation within the containing bucket, clamped to
        the exact observed ``[min, max]``; NaN when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        n = self._stats.count
        if n == 0:
            return math.nan
        target = q * n
        cumulative = 0
        lower = self._stats.min
        for bound, count in zip(self._bounds, self._bucket_counts):
            if count:
                cumulative += count
                if cumulative >= target:
                    frac = 1.0 - (cumulative - target) / count
                    est = lower + frac * (bound - lower)
                    return min(max(est, self._stats.min), self._stats.max)
            lower = max(lower, bound)
        return self._stats.max  # target falls in the overflow bucket

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.6g})"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of named metrics.

    A name is permanently bound to its first-requested kind; asking for
    the same name as a different kind raises, which catches the classic
    "two subsystems disagree about engine.aborts" bug early.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: str):
        if not name:
            raise ObservabilityError("metric name must be non-empty")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, _KINDS[kind]):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__.lower()}, requested as {kind}"
                )
            return existing
        metric = _KINDS[kind]()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")

    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prefixes every metric name with ``prefix.``."""
        return MetricsScope(self, prefix)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict[str, object]:
        """Plain-data dump: counters/gauges to numbers, histograms to dicts."""
        out: dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "mean": metric.mean,
                    "std": metric.std,
                    "min": metric.min,
                    "max": metric.max,
                    "p50": metric.quantile(0.50),
                    "p95": metric.quantile(0.95),
                    "p99": metric.quantile(0.99),
                }
            else:
                out[name] = metric.value  # type: ignore[union-attr]
        return out

    def render(self) -> str:
        """Readable multi-line report, names sorted."""
        lines = ["metrics:"]
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(
                    f"  {name}: n={metric.count} mean={metric.mean:.6g} "
                    f"std={metric.std:.6g} min={metric.min:.6g} max={metric.max:.6g} "
                    f"p50={metric.quantile(0.5):.6g} p95={metric.quantile(0.95):.6g}"
                )
            elif isinstance(metric, Counter):
                lines.append(f"  {name}: {metric.value}")
            else:
                lines.append(f"  {name}: {metric.value:.6g}")
        return "\n".join(lines)


class MetricsScope:
    """Prefixing proxy over a :class:`MetricsRegistry` (or another scope)."""

    def __init__(self, registry: "MetricsRegistry | MetricsScope", prefix: str):
        if not prefix:
            raise ObservabilityError("scope prefix must be non-empty")
        self._registry = registry
        self._prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._qualify(name))

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self, prefix)


# ----------------------------------------------------------------------
# active-registry plumbing (mirrors repro.obs.recorder)
# ----------------------------------------------------------------------
_active: "MetricsRegistry | None" = None


def active_metrics() -> "MetricsRegistry | None":
    """The registry engines should report into, or ``None`` when disabled."""
    return _active


def activate_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    global _active
    if not isinstance(registry, MetricsRegistry):
        raise ObservabilityError(
            f"can only activate a MetricsRegistry, got {type(registry).__name__}"
        )
    _active = registry
    return registry


def deactivate_metrics() -> None:
    global _active
    _active = None


@contextmanager
def collecting_metrics():
    """Context manager: activate a fresh registry, yield it."""
    global _active
    registry = MetricsRegistry()
    previous = _active
    activate_metrics(registry)
    try:
        yield registry
    finally:
        _active = previous
