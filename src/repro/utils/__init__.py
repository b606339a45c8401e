"""Shared utilities: RNG plumbing, statistics, rendering."""

from repro.utils.rng import ensure_rng, random_prefix, spawn
from repro.utils.stats import MeanCI, RunningStats, hypergeom_miss_probability, mean_ci
from repro.utils.svgplot import LinePlot
from repro.utils.tables import format_series, format_table, sparkline

__all__ = [
    "ensure_rng",
    "random_prefix",
    "spawn",
    "MeanCI",
    "RunningStats",
    "hypergeom_miss_probability",
    "mean_ci",
    "LinePlot",
    "format_series",
    "format_table",
    "sparkline",
]
