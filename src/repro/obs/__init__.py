"""Observability layer: traces, metrics, timed spans, replay, export.

The three channels and what each answers (see docs/observability.md):

* **event traces** (:mod:`repro.obs.events`, :mod:`repro.obs.recorder`) —
  *what happened*: per-step structured records of everything the runtime
  did and why the controller decided what it decided, in a bounded ring
  buffer with canonical JSONL export/import;
* **metrics** (:mod:`repro.obs.metrics`) — *how much*: named counters/
  gauges/histograms (with bucket quantiles) aggregated across a run,
  cheap enough to leave on;
* **timed spans** (:mod:`repro.obs.spans`) — *where the time went*:
  hierarchical ``perf_counter_ns`` phase timings aggregated per span
  path, with optional 1-in-N step sampling.

On top of the channels:

* **deterministic replay** (:mod:`repro.obs.replay`) — a trace alone
  reproduces the controller's ``m_t`` decision trajectory; a trace plus
  the original seed reproduces the entire engine run;
* **export** (:mod:`repro.obs.export`) — OpenMetrics text exposition and
  a lossless JSON snapshot of the metrics registry;
* **run report** (:mod:`repro.obs.report`) — one summary of a recorded
  run: rule usage, ρ tracking, commit-order counts and, given a span
  profiler, where the step time went.

Everything is opt-in: engines built without a recorder/registry/profiler
(and with no active one) skip all instrumentation at the cost of one
attribute test per step phase.
"""

from repro.obs.events import (
    CLAMP,
    DECISION,
    HALO_EXCHANGE,
    ORDER_DECISION,
    RUN_END,
    RUN_START,
    STEP,
    TraceEvent,
    event_from_json,
    event_to_json,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    activate_metrics,
    active_metrics,
    collecting_metrics,
    deactivate_metrics,
)
from repro.obs.export import (
    render_openmetrics,
    restore_registry,
    snapshot_registry,
    write_telemetry,
)
from repro.obs.recorder import (
    TraceRecorder,
    activate,
    active_recorder,
    deactivate,
    describe_seed,
    load_jsonl,
    load_jsonl_meta,
    recording,
)
from repro.obs.spans import (
    NULL_SPAN,
    SpanProfiler,
    SpanStat,
    activate_profiler,
    active_profiler,
    deactivate_profiler,
    profiling,
)

from repro.obs.replay import (
    ReplayController,
    ReplayReport,
    controller_from_config,
    controller_from_trace,
    recorded_seed,
    replay_decisions,
    split_runs,
    trajectory,
    verify_trace,
)
from repro.obs.report import RunReport, run_report

__all__ = [
    "TraceEvent",
    "RUN_START",
    "STEP",
    "HALO_EXCHANGE",
    "ORDER_DECISION",
    "DECISION",
    "CLAMP",
    "RUN_END",
    "event_to_json",
    "event_from_json",
    "TraceRecorder",
    "load_jsonl",
    "load_jsonl_meta",
    "active_recorder",
    "activate",
    "deactivate",
    "recording",
    "describe_seed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "active_metrics",
    "activate_metrics",
    "deactivate_metrics",
    "collecting_metrics",
    "split_runs",
    "trajectory",
    "recorded_seed",
    "controller_from_config",
    "controller_from_trace",
    "ReplayReport",
    "replay_decisions",
    "verify_trace",
    "ReplayController",
    "SpanStat",
    "SpanProfiler",
    "NULL_SPAN",
    "active_profiler",
    "activate_profiler",
    "deactivate_profiler",
    "profiling",
    "render_openmetrics",
    "snapshot_registry",
    "restore_registry",
    "write_telemetry",
    "RunReport",
    "run_report",
]
