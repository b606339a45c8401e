"""Tests for repro.obs.report — one run report from a trace and a profiler."""

from pathlib import Path

import pytest

from repro.control import FixedController, HybridController
from repro.errors import ObservabilityError
from repro.graph.generators import gnm_random
from repro.obs import (
    RUN_START,
    SpanProfiler,
    TraceEvent,
    TraceRecorder,
    load_jsonl,
    recording,
    run_report,
    split_runs,
    trajectory,
)
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload, ReplayGraphWorkload

FIXTURES = Path(__file__).parent / "fixtures"


def golden(name: str):
    return load_jsonl(FIXTURES / f"golden_{name}_gnm200_d8.jsonl")


def record_run(controller, n=60, d=6, graph_seed=3, engine_seed=11, max_steps=40):
    """Run *controller* on a draining gnm workload under a fresh recorder."""
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(gnm_random(n, d, seed=graph_seed))
    engine = make_engine(workload, controller, seed=engine_seed, recorder=rec)
    engine.run(max_steps=max_steps)
    return rec.events


# ----------------------------------------------------------------------
# the checked-in goldens: numbers pinned as literals
# ----------------------------------------------------------------------
class TestGoldenReports:
    def test_hybrid_golden(self):
        report = run_report(golden("hybrid"))
        assert report.controller == "HybridController"
        assert report.policy == "ExplicitGraphPolicy"
        assert report.steps == 19 and report.final_m == 18
        assert report.rules == {"B": (1, 3, 3), "A": (1, 7, 7), "hold": (2, 11, 15)}
        assert report.decisions == 4 and report.hold_fraction == 0.5
        assert report.clamps == 0 and report.cold_start == 3
        assert [round(p, 3) for p in report.r_percentiles] == [0.0, 0.167, 0.389]
        assert round(report.mean_window_r, 3) == 0.173
        assert report.rho == 0.25 and report.epsilon == 0.05 and report.window == 8
        assert report.settling_step == 9
        assert report.tracking_error == pytest.approx(0.02654547694105648, abs=1e-15)
        assert report.order_decisions == report.windowed_draws == 0
        assert report.shard_launched == () and report.workloads == ()
        assert run_report(golden("hybrid")) == report  # a pure function

    def test_hybrid_golden_renders(self):
        assert run_report(golden("hybrid")).render() == (
            "run report (HybridController, ExplicitGraphPolicy, 19 steps):\n"
            "  rule        B:    1 firings (steps 3..3)\n"
            "  rule        A:    1 firings (steps 7..7)\n"
            "  rule     hold:    2 firings (steps 11..15)\n"
            "  per-step r: p10=0.000 p50=0.167 p90=0.389; mean windowed r = 0.173\n"
            "  clamp hits: 0; dead-band/hold decisions: 50%\n"
            "  final allocation: 18; cold start ends at step 3\n"
            "  tracking rho=0.25 (|r̄-rho| <= 0.05, window=8): settled at step 9, "
            "RMS 0.0265"
        )

    def test_relaxed_golden(self):
        report = run_report(golden("relaxed2"))
        assert report.policy == "relaxed:2" and report.steps == 19
        assert report.settling_step == 8
        assert round(report.tracking_error, 4) == 0.0348
        assert report.order_decisions == 19 and report.windowed_draws == 251
        assert report.shard_launched == ()
        assert "order decisions: 19 (251 windowed draws)" in report.render()

    def test_sharded_golden(self):
        report = run_report(golden("sharded2"))
        assert report.policy == "sharded:2" and report.steps == 18
        assert report.settling_step is None
        assert round(report.tracking_error, 4) == 0.0651
        assert report.shard_launched == (140, 138)
        assert report.shard_committed == (100, 100)
        assert report.halo_exchanges == 18 and report.halo_aborts == 30
        assert report.windowed_draws == 0
        text = report.render()
        assert "never settled, RMS 0.0651" in text
        assert "shards (launched/committed): shard 0: 140/100, shard 1: 138/100" in text
        assert "halo: 18 exchanges, 30 aborts" in text


# ----------------------------------------------------------------------
# recorded runs of live controllers
# ----------------------------------------------------------------------
def run_hybrid(rho=0.2, steps=80, seed=0):
    """A recorded hybrid run: ``(controller, events)``."""
    recorder = TraceRecorder()
    ctrl = HybridController(rho, small_params=None)
    workload = ReplayGraphWorkload(gnm_random(800, 12, seed=seed))
    make_engine(workload, ctrl, seed=seed + 1, recorder=recorder).run(max_steps=steps)
    return ctrl, recorder.events


class TestRecordedRuns:
    def test_rule_usage_counts_match_updates(self):
        ctrl, events = run_hybrid()
        report = run_report(events)
        assert sum(count for count, _, _ in report.rules.values()) == len(ctrl.updates)
        assert report.decisions == len(ctrl.updates)
        assert report.final_m == ctrl.trace.m_trace[-1]  # the last step's m

    def test_cold_start_uses_recurrence_b(self):
        report = run_report(run_hybrid()[1])
        _, first_b, _ = report.rules["B"]
        assert first_b <= 8  # early climb is B's job
        assert report.cold_start >= first_b

    def test_steady_state_mostly_holds_or_a(self):
        report = run_report(run_hybrid(steps=200)[1])
        gentle = sum(report.rules.get(rule, (0, 0, 0))[0] for rule in ("hold", "A"))
        assert gentle >= report.rules["B"][0]  # B is the exception

    def test_percentiles_ordered(self):
        p10, p50, p90 = run_report(run_hybrid()[1]).r_percentiles
        assert p10 <= p50 <= p90

    def test_render_mentions_rules(self):
        text = run_report(run_hybrid()[1]).render()
        assert "rule" in text and "final allocation" in text

    def test_report_on_recorded_hybrid_run(self):
        events = record_run(HybridController(0.25, m_max=64))
        report = run_report(events)
        assert report.controller == "HybridController"
        assert report.steps == len(trajectory(events)[0])
        assert report.decisions > 0
        text = report.render()
        assert "HybridController" in text and "final allocation" in text

    def test_controller_without_rho_reports_no_tracking(self):
        report = run_report(record_run(FixedController(4)))
        assert report.controller == "FixedController"
        assert report.rho is None and report.tracking_error is None
        assert report.rules == {} and report.cold_start is None
        assert "tracking" not in report.render()

    def test_multi_run_segment_rejected(self):
        events = record_run(FixedController(4)) + record_run(FixedController(4))
        with pytest.raises(ObservabilityError, match="split_runs"):
            run_report(events)
        for segment in split_runs(events):
            run_report(segment)  # per-segment works

    def test_headless_trace_rejected(self):
        with pytest.raises(ObservabilityError, match="no run_start"):
            run_report([])
        with pytest.raises(ObservabilityError, match="no run_start"):
            run_report(record_run(FixedController(4))[1:], SpanProfiler())


# ----------------------------------------------------------------------
# settling and tracking error on synthetic runs
# ----------------------------------------------------------------------
def _synthetic_run(ratios, rho=0.2, launched=100):
    controller = {"type": "FakeController"}
    if rho is not None:
        controller["rho"] = rho
    events = [TraceEvent(step=0, kind=RUN_START, data={"controller": controller})]
    for t, r in enumerate(ratios):
        aborted = int(round(r * launched))
        events.append(
            TraceEvent(
                step=t,
                kind="step",
                data={
                    "aborted": aborted,
                    "launched": launched,
                    "conflict_ratio": aborted / launched,
                    "requested": launched,
                },
            )
        )
    return events


class TestTracking:
    def test_settles_once_band_holds_to_the_end(self):
        # in band from the start: settles at the first step
        report = run_report(_synthetic_run([0.2] * 10), window=1)
        assert report.settling_step == 0
        assert report.tracking_error == pytest.approx(0.0)

    def test_late_excursion_resets_settling(self):
        ratios = [0.2] * 8 + [0.9] + [0.2] * 3
        report = run_report(_synthetic_run(ratios), window=1)
        assert report.settling_step == 9  # first step after the excursion

    def test_never_settled_reports_tail_error(self):
        report = run_report(_synthetic_run([0.9] * 10), window=1)
        assert report.settling_step is None
        assert report.tracking_error == pytest.approx(0.7)
        assert "never settled" in report.render()

    def test_window_averages_launch_weighted(self):
        # r̄ over two steps of 100 launches: (0 + 60) / 200 = 0.3
        report = run_report(_synthetic_run([0.0, 0.6], rho=0.3), window=2)
        assert report.settling_step == 1
        assert report.tracking_error == pytest.approx(0.0)

    def test_no_rho_means_no_tracking(self):
        report = run_report(_synthetic_run([0.2] * 4, rho=None))
        assert report.settling_step is None and report.tracking_error is None

    def test_no_steps_means_no_tracking(self):
        report = run_report(_synthetic_run([]))
        assert report.steps == 0 and report.tracking_error is None
        assert report.r_percentiles == (0.0, 0.0, 0.0)

    def test_parameter_validation(self):
        events = _synthetic_run([0.2] * 4)
        with pytest.raises(ObservabilityError):
            run_report(events, window=0)
        with pytest.raises(ObservabilityError):
            run_report(events, epsilon=0.0)


# ----------------------------------------------------------------------
# time per step phase, given a profiler
# ----------------------------------------------------------------------
def _synthetic_profiler() -> SpanProfiler:
    prof = SpanProfiler()
    prof.add("step", 1_000, count=10)
    prof.add("step/resolve", 600, count=10)
    prof.add("step/select", 300, count=10)
    prof.add("step/resolve/kernel", 550, count=10)  # grandchild: not a phase
    prof.add("other_root", 99)
    return prof


class TestProfileSection:
    def test_phases_are_direct_children_sorted_by_total(self):
        report = run_report(profiler=_synthetic_profiler())
        assert report.controller is None and report.profiled_steps == 10
        assert report.phases == (("resolve", 10, 600), ("select", 10, 300))
        assert report.critical_phase == "resolve"

    def test_self_time_and_coverage(self):
        report = run_report(profiler=_synthetic_profiler())
        assert report.step_ns == 1_000
        assert report.coverage == pytest.approx(0.9)
        assert "(self): total=0.000ms" in report.render()

    def test_grandchildren_not_double_counted(self):
        report = run_report(profiler=_synthetic_profiler())
        assert all(name != "kernel" for name, _, _ in report.phases)

    def test_render_mentions_every_phase(self):
        text = run_report(profiler=_synthetic_profiler()).render()
        assert text.startswith("profile: 10x step")
        assert "resolve: 10x" in text and "(60.0%)" in text and "select" in text

    def test_missing_root_raises(self):
        with pytest.raises(ObservabilityError, match="no 'step' spans"):
            run_report(profiler=SpanProfiler())

    def test_rejects_non_profiler(self):
        with pytest.raises(ObservabilityError):
            run_report(profiler={"step": 1})

    def test_report_from_live_engine_covers_wall_clock(self):
        """Acceptance: the phases explain >= 95% of the step span."""
        from repro.obs import profiling

        recorder = TraceRecorder()
        wl = ReplayGraphWorkload(gnm_random(500, 8, seed=4))
        with profiling() as prof:
            engine = make_engine(wl, FixedController(250), seed=3, recorder=recorder)
            for _ in range(30):
                engine.step()
        report = run_report(recorder.events, prof)
        assert report.steps == report.profiled_steps == 30
        assert report.coverage >= 0.95
        text = report.render()
        assert "run report (FixedController" in text and "profile: 30x step" in text


# ----------------------------------------------------------------------
# workload provenance
# ----------------------------------------------------------------------
class TestWorkloadProvenance:
    def test_capture_and_replay_are_named(self, tmp_path):
        from repro import RunConfig
        from repro.api import run

        path = tmp_path / "t.wktrace"
        with recording() as captured:
            run(RunConfig(workload="boruvka:30", seed=2), record_workload=str(path))
        with recording() as replayed:
            run(RunConfig(workload=f"trace:{path}", seed=2))
        (capture,) = run_report(captured.events).workloads
        (replay,) = run_report(replayed.events).workloads
        assert capture.kind == "workload_capture" and replay.kind == "workload_replay"
        assert capture.get("fingerprint") == replay.get("fingerprint")
        text = run_report(replayed.events).render()
        assert f"workload replay: {path} (" in text
        assert capture.get("fingerprint")[:12] in text
