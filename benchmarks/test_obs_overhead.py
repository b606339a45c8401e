"""Observability overhead gate.

The three channels (trace events, metrics, timed spans) are sold as
cheap enough to leave on.  This gate holds them to it: two fast engines
step through the same workload in lock-step — one with everything
disabled, one with all three channels active — and the instrumented
engine's median per-step time must stay within ``GATE_MAX_OVERHEAD`` of
the baseline's.  The instrumented run's span profile must also
*explain* the step wall-clock — per-phase times summing to at least
``GATE_MIN_COVERAGE`` of the ``step`` span — or the profiler is lying
about where the time goes.  Measurements land in ``BENCH_obs.json`` at
the repo root (uploaded as a CI artifact), with the absolute extra
nanoseconds per step next to the ratio.

Steps alternate baseline/instrumented and each side is judged by its
per-step *median*, so a load spike hits a few samples on both sides
instead of masquerading as instrumentation cost.
"""

import json
import statistics
import time

from pathlib import Path

from repro.control.fixed import FixedController
from repro.graph.generators import gnm_random
from repro.obs import (
    SpanProfiler,
    TraceRecorder,
    activate,
    activate_metrics,
    activate_profiler,
    deactivate,
    deactivate_metrics,
    deactivate_profiler,
    profiling,
    run_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ReplayGraphWorkload

GATE_MAX_OVERHEAD = 0.05  # instrumented may cost at most 5% extra
GATE_MIN_COVERAGE = 0.95  # phases must explain >= 95% of step wall-clock
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
# the kernel gate's case: heavy steps, so per-step work dominates noise
GATE_N, GATE_D, GATE_M, GATE_SEED = 5000, 8, 2500, 17
GATE_STEPS = 120  # alternating baseline/instrumented step pairs


def _gate_graph():
    graph = gnm_random(GATE_N, GATE_D, seed=GATE_SEED)
    graph.csr()  # warm the memoised view, as a stationary run would
    return graph


def _build_engine(graph, instrumented: bool, profiler=None):
    """An engine over *graph*; the instrumented one binds all channels.

    Engines capture the active recorder/registry/profiler at construction,
    so the channels only need to be globally active while this runs.
    """
    if instrumented:
        activate(TraceRecorder(capacity=4 * GATE_STEPS))
        activate_metrics(MetricsRegistry())
        activate_profiler(profiler)
    try:
        wl = ReplayGraphWorkload(graph.copy())
        return make_engine(wl, FixedController(GATE_M), seed=3)
    finally:
        if instrumented:
            deactivate()
            deactivate_metrics()
            deactivate_profiler()


def test_obs_overhead_gate():
    """All three channels on vs all off: < 5% median per-step overhead."""
    graph = _gate_graph()
    profiler = SpanProfiler()
    base_engine = _build_engine(graph, instrumented=False)
    instr_engine = _build_engine(graph, instrumented=True, profiler=profiler)

    def base_step() -> float:
        t0 = time.perf_counter_ns()
        base_engine.step()
        return time.perf_counter_ns() - t0

    def instr_step() -> float:
        # the kernel spans look the profiler up at call time, so it must
        # be globally active during the instrumented engine's steps
        activate_profiler(profiler)
        try:
            t0 = time.perf_counter_ns()
            instr_engine.step()
            return time.perf_counter_ns() - t0
        finally:
            deactivate_profiler()

    base_step(), instr_step()  # warm-up pair, discarded
    base_times, instr_times = [], []
    for _ in range(GATE_STEPS):
        base_times.append(base_step())
        instr_times.append(instr_step())
    base_median = statistics.median(base_times)
    instr_median = statistics.median(instr_times)
    overhead = instr_median / base_median - 1.0

    report = run_report(profiler=profiler)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "case": {
                    "graph": "gnm_random",
                    "n": GATE_N,
                    "d": GATE_D,
                    "m": GATE_M,
                    "steps": GATE_STEPS,
                    "engine": "fast",
                },
                "baseline_median_step_ns": base_median,
                "instrumented_median_step_ns": instr_median,
                "overhead_fraction": overhead,
                "extra_ns_per_step": instr_median - base_median,
                "gate_max_overhead": GATE_MAX_OVERHEAD,
                "span_coverage": report.coverage,
                "gate_min_coverage": GATE_MIN_COVERAGE,
                "critical_phase": report.critical_phase,
                "phases": {
                    name: {"total_ns": total, "share": total / report.step_ns}
                    for name, _, total in report.phases
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    assert report.coverage >= GATE_MIN_COVERAGE, (
        f"span phases explain only {report.coverage:.1%} of step wall-clock "
        f"(need >= {GATE_MIN_COVERAGE:.0%})"
    )
    assert overhead < GATE_MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} >= {GATE_MAX_OVERHEAD:.0%} "
        f"(median step: baseline {base_median / 1e6:.3f} ms, "
        f"instrumented {instr_median / 1e6:.3f} ms)"
    )


def test_sampled_profiling_cuts_span_cost():
    """1-in-N sampling must record ~1/N of the steps, none in between."""
    graph = gnm_random(1000, 8, seed=5)
    with profiling(sample_every=10) as profiler:
        wl = ReplayGraphWorkload(graph.copy())
        engine = make_engine(wl, FixedController(200), seed=3)
        for _ in range(100):
            engine.step()
    report = run_report(profiler=profiler)
    assert report.profiled_steps == 10  # steps 0, 10, ..., 90
    assert report.phases  # sampled steps still carry their phase spans
