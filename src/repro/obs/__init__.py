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
attribute test per step phase.  Names are re-exported lazily, so a run
that never replays, exports or reports does not import those modules.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": (
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
        ),
        "recorder": (
            "TraceRecorder",
            "load_jsonl",
            "load_jsonl_meta",
            "active_recorder",
            "activate",
            "deactivate",
            "recording",
            "describe_seed",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "MetricsScope",
            "active_metrics",
            "activate_metrics",
            "deactivate_metrics",
            "collecting_metrics",
        ),
        "replay": (
            "split_runs",
            "trajectory",
            "controller_from_config",
            "controller_from_trace",
            "ReplayReport",
            "replay_decisions",
            "verify_trace",
            "ReplayController",
        ),
        "spans": (
            "SpanStat",
            "SpanProfiler",
            "NULL_SPAN",
            "active_profiler",
            "activate_profiler",
            "deactivate_profiler",
            "profiling",
        ),
        "export": (
            "render_openmetrics",
            "snapshot_registry",
            "restore_registry",
            "write_telemetry",
        ),
        "report": ("RunReport", "run_report"),
    },
)
