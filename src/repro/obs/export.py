"""Telemetry export: OpenMetrics text exposition and canonical JSON.

Two serialisations of a :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`render_openmetrics` — the Prometheus/OpenMetrics text format
  (``# TYPE`` headers, ``_total`` counters, cumulative
  ``_bucket{le="..."}`` histogram series, terminated by ``# EOF``), so a
  run's telemetry can be scraped or pushed to any Prometheus-compatible
  stack without adapters.
* :func:`snapshot_registry` / :func:`restore_registry` — a *lossless*
  kinded JSON snapshot.  Unlike ``MetricsRegistry.snapshot()`` (a human
  summary), this one carries the Welford internals and bucket tables, so
  ``restore_registry(json.loads(json.dumps(snapshot_registry(reg))))``
  rebuilds a registry whose :meth:`render` is byte-identical — the
  round-trip property the telemetry files are tested against.

Both outputs are deterministically sorted by metric name, making
telemetry files diffable across runs.  Non-finite floats (a gauge that
was never set is NaN) are encoded as the strings ``"nan"``/``"inf"``/
``"-inf"`` so snapshots stay strict JSON.

:func:`write_telemetry` bundles the pair: given ``out/telemetry`` it
writes ``out/telemetry.prom`` and ``out/telemetry.json``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "render_openmetrics",
    "snapshot_registry",
    "restore_registry",
    "write_telemetry",
]

#: kinded-snapshot layout version (bump on incompatible change)
SNAPSHOT_SCHEMA = 1

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str) -> str:
    """Sanitise a dotted registry name into an OpenMetrics metric name."""
    out = _NAME_OK.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """OpenMetrics sample-value formatting (NaN / +Inf / -Inf spelled out)."""
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _encode_float(x: float) -> "float | str":
    """JSON-safe float: non-finite values become tagged strings."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _decode_float(x: "float | int | str") -> float:
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError as exc:
            raise ObservabilityError(f"bad encoded float {x!r}") from exc
    return float(x)


# ----------------------------------------------------------------------
# OpenMetrics text exposition
# ----------------------------------------------------------------------
def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry as OpenMetrics text exposition (ends with ``# EOF``).

    Histogram bucket series are cumulative ``le`` counts; empty buckets
    below the first observation are elided (the series stays monotone,
    and the mandatory ``+Inf`` bucket always closes it).
    """
    lines: list[str] = []
    for name in registry.names():
        metric = registry._metrics[name]  # registry-internal walk, same package
        om = _metric_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {om} counter")
            lines.append(f"{om}_total {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {om} gauge")
            lines.append(f"{om} {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {om} histogram")
            cumulative = 0
            for bound, count in metric.buckets():
                if math.isinf(bound):
                    continue  # folded into +Inf below
                cumulative += count
                lines.append(f'{om}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{om}_bucket{{le="+Inf"}} {metric.count}')
            total = metric.mean * metric.count if metric.count else 0.0
            lines.append(f"{om}_sum {_fmt(total)}")
            lines.append(f"{om}_count {metric.count}")
        else:  # pragma: no cover - registry only stores the three kinds
            raise ObservabilityError(
                f"cannot export metric {name!r} of type {type(metric).__name__}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# lossless kinded JSON snapshot
# ----------------------------------------------------------------------
def snapshot_registry(registry: MetricsRegistry) -> dict:
    """Kinded full-state dump; JSON-serialisable and lossless.

    Histograms carry the Welford accumulator fields (``m2`` included —
    Python's float repr round-trips exactly through JSON) plus the
    bucket bounds and per-bucket counts, so :func:`restore_registry`
    rebuilds the identical distribution summary.
    """
    metrics: dict[str, dict] = {}
    for name in registry.names():
        metric = registry._metrics[name]
        if isinstance(metric, Counter):
            metrics[name] = {"kind": "counter", "value": metric.value}
        elif isinstance(metric, Gauge):
            metrics[name] = {"kind": "gauge", "value": _encode_float(metric.value)}
        elif isinstance(metric, Histogram):
            stats = metric._stats  # lossless dump needs the accumulator fields
            metrics[name] = {
                "kind": "histogram",
                "count": stats.count,
                "mean": _encode_float(stats._mean),
                "m2": _encode_float(stats._m2),
                "min": _encode_float(stats.min),
                "max": _encode_float(stats.max),
                "bounds": [_encode_float(b) for b in metric._bounds],
                "bucket_counts": list(metric._bucket_counts),
                "overflow": metric._overflow,
            }
        else:  # pragma: no cover
            raise ObservabilityError(
                f"cannot snapshot metric {name!r} of type {type(metric).__name__}"
            )
    return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}


def restore_registry(snapshot: dict) -> MetricsRegistry:
    """Inverse of :func:`snapshot_registry`."""
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise ObservabilityError("telemetry snapshot has no 'metrics' table")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ObservabilityError(
            f"telemetry snapshot schema {snapshot.get('schema')!r} != {SNAPSHOT_SCHEMA}"
        )
    registry = MetricsRegistry()
    for name, entry in snapshot["metrics"].items():
        try:
            kind = entry["kind"]
            if kind == "counter":
                registry.counter(name).inc(int(entry["value"]))
            elif kind == "gauge":
                registry.gauge(name).value = _decode_float(entry["value"])
            elif kind == "histogram":
                hist = registry.histogram(name)
                bounds = tuple(_decode_float(b) for b in entry["bounds"])
                if bounds != hist._bounds:
                    # snapshot was taken with a custom ladder
                    hist._bounds = bounds
                    hist._bucket_counts = [0] * len(bounds)
                counts = [int(c) for c in entry["bucket_counts"]]
                if len(counts) != len(hist._bounds):
                    raise ObservabilityError(
                        f"histogram {name!r}: {len(counts)} bucket counts "
                        f"for {len(hist._bounds)} bounds"
                    )
                stats = hist._stats
                stats.count = int(entry["count"])
                stats._mean = _decode_float(entry["mean"])
                stats._m2 = _decode_float(entry["m2"])
                stats.min = _decode_float(entry["min"])
                stats.max = _decode_float(entry["max"])
                hist._bucket_counts = counts
                hist._overflow = int(entry["overflow"])
            else:
                raise ObservabilityError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )
        except ObservabilityError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed telemetry snapshot entry for {name!r}"
            ) from exc
    return registry


def write_telemetry(base: "str | Path", registry: MetricsRegistry) -> "tuple[Path, Path]":
    """Write ``<base>.prom`` and ``<base>.json``; return the two paths."""
    base = Path(base)
    if base.parent and not base.parent.exists():
        base.parent.mkdir(parents=True, exist_ok=True)
    prom_path = base.with_name(base.name + ".prom")
    json_path = base.with_name(base.name + ".json")
    prom_path.write_text(render_openmetrics(registry), encoding="utf-8")
    json_path.write_text(
        json.dumps(snapshot_registry(registry), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return prom_path, json_path
