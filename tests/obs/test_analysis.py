"""Tests for repro.obs.analysis — profiling, convergence, live progress."""

from pathlib import Path

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    SpanProfiler,
    SweepProgress,
    TraceEvent,
    convergence_report,
    load_jsonl,
    profile_report,
)
from repro.obs.events import (
    RUN_START,
    SWEEP_TASK_COMPLETE,
    SWEEP_TASK_START,
)

GOLDEN = Path(__file__).parent / "fixtures" / "golden_hybrid_gnm200_d8.jsonl"


# ----------------------------------------------------------------------
# profile_report
# ----------------------------------------------------------------------
def _synthetic_profiler() -> SpanProfiler:
    prof = SpanProfiler()
    prof.add("step", 1_000, count=10)
    prof.add("step/resolve", 600, count=10)
    prof.add("step/select", 300, count=10)
    prof.add("step/resolve/kernel", 550, count=10)  # grandchild: not a phase
    prof.add("other_root", 99)
    return prof


class TestProfileReport:
    def test_phases_are_direct_children_sorted_by_total(self):
        report = profile_report(_synthetic_profiler())
        assert report.root == "step" and report.steps == 10
        assert [p.name for p in report.phases] == ["resolve", "select"]
        assert report.critical_phase == "resolve"

    def test_shares_self_time_and_coverage(self):
        report = profile_report(_synthetic_profiler())
        assert report.wall_ns == 1_000
        assert report.phases[0].share == pytest.approx(0.6)
        assert report.self_ns == 100
        assert report.coverage == pytest.approx(0.9)

    def test_grandchildren_not_double_counted(self):
        report = profile_report(_synthetic_profiler())
        assert all(p.name != "kernel" for p in report.phases)

    def test_render_mentions_every_phase(self):
        text = profile_report(_synthetic_profiler()).render()
        assert "resolve" in text and "select" in text and "(self)" in text

    def test_missing_root_raises(self):
        with pytest.raises(ObservabilityError, match="no 'step' spans"):
            profile_report(SpanProfiler())

    def test_rejects_non_profiler(self):
        with pytest.raises(ObservabilityError):
            profile_report({"step": 1})

    def test_report_from_live_engine_covers_wall_clock(self):
        """Acceptance: the phases explain >= 95% of the step span."""
        from repro.control.fixed import FixedController
        from repro.graph.generators import gnm_random
        from repro.obs import profiling
        from repro.runtime.workloads import ReplayGraphWorkload

        wl = ReplayGraphWorkload(gnm_random(500, 8, seed=4))
        with profiling() as prof:
            engine = wl.make_engine(FixedController(250), seed=3)
            for _ in range(30):
                engine.step()
        report = profile_report(prof)
        assert report.steps == 30
        assert report.coverage >= 0.95


# ----------------------------------------------------------------------
# convergence_report
# ----------------------------------------------------------------------
def _synthetic_run(ratios, rho=0.2, launched=100):
    events = [
        TraceEvent(
            step=0,
            kind=RUN_START,
            data={"controller": {"type": "FakeController", "rho": rho}},
        )
    ]
    for t, r in enumerate(ratios):
        events.append(
            TraceEvent(
                step=t,
                kind="step",
                data={"aborted": int(round(r * launched)), "launched": launched},
            )
        )
    return events


class TestConvergenceReport:
    def test_golden_fixture_is_deterministic(self):
        """The report is a pure function of the recorded events."""
        report = convergence_report(load_jsonl(GOLDEN))
        assert report.rho == 0.25  # from the run_start controller config
        assert report.steps == 19
        assert report.settled and report.settling_step == 9
        assert report.tracking_error == pytest.approx(0.02654547694105648)
        assert report.decisions == 4
        assert report.decisions_by_rule == {"A": 1, "B": 1, "hold": 2}
        assert report.clamps == 0
        assert convergence_report(load_jsonl(GOLDEN)) == report

    def test_settles_once_band_holds_to_the_end(self):
        # in band from the start: settles at the first step
        report = convergence_report(_synthetic_run([0.2] * 10), window=1)
        assert report.settling_step == 0
        assert report.tracking_error == pytest.approx(0.0)

    def test_late_excursion_resets_settling(self):
        ratios = [0.2] * 8 + [0.9] + [0.2] * 3
        report = convergence_report(_synthetic_run(ratios), window=1)
        assert report.settling_step == 9  # first step after the excursion

    def test_never_settled_reports_tail_error(self):
        report = convergence_report(_synthetic_run([0.9] * 10), window=1)
        assert not report.settled
        assert report.tracking_error == pytest.approx(0.7)
        assert "never settled" in report.render()

    def test_explicit_rho_overrides_recorded(self):
        report = convergence_report(_synthetic_run([0.9] * 10), rho=0.9, window=1)
        assert report.settled

    def test_no_rho_anywhere_raises(self):
        events = _synthetic_run([0.2] * 4)
        events[0] = TraceEvent(step=0, kind=RUN_START, data={"controller": {}})
        with pytest.raises(ObservabilityError, match="no rho target"):
            convergence_report(events)

    def test_no_steps_raises(self):
        with pytest.raises(ObservabilityError, match="no step events"):
            convergence_report(_synthetic_run([]))

    def test_parameter_validation(self):
        events = _synthetic_run([0.2] * 4)
        with pytest.raises(ObservabilityError):
            convergence_report(events, window=0)
        with pytest.raises(ObservabilityError):
            convergence_report(events, epsilon=0.0)

    def test_second_run_ignored(self):
        first = _synthetic_run([0.2] * 6)
        second = _synthetic_run([0.9] * 6)
        report = convergence_report(first + second, window=1)
        assert report.steps == 6 and report.settled


# ----------------------------------------------------------------------
# SweepProgress
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSweepProgress:
    def _progress(self, total=4, **kw):
        self.lines = []
        self.clock = FakeClock()
        return SweepProgress(
            total, sink=self.lines.append, clock=self.clock, **kw
        )

    def test_counts_lifecycle_events(self):
        prog = self._progress()
        prog.on_event(SWEEP_TASK_COMPLETE, {})
        prog.on_event(SWEEP_TASK_START, {})  # unknown-to-the-counter kinds ignored
        prog.on_event("sweep_start", {})
        assert prog.completed == 1
        assert prog.remaining == 3

    def test_ewma_and_eta(self):
        prog = self._progress(total=5, jobs=2)
        prog.note_attempt_seconds(10.0)
        assert prog.ewma_attempt_seconds == 10.0
        prog.note_attempt_seconds(20.0)
        assert prog.ewma_attempt_seconds == pytest.approx(13.0)  # 0.3*20 + 0.7*10
        assert prog.eta_seconds() == pytest.approx(13.0 * 5 / 2)

    def test_eta_none_without_latency_or_work(self):
        prog = self._progress(total=1)
        assert prog.eta_seconds() is None
        prog.note_attempt_seconds(1.0)
        prog.on_event(SWEEP_TASK_COMPLETE, {})
        assert prog.remaining == 0 and prog.eta_seconds() is None

    def test_emits_are_rate_limited(self):
        prog = self._progress(total=2, interval=5.0)
        assert prog.maybe_emit() is not None  # first emit always fires
        self.clock.now = 3.0
        assert prog.maybe_emit() is None  # too soon
        self.clock.now = 6.0
        assert prog.maybe_emit() is not None
        assert prog.maybe_emit(force=True) is not None
        assert len(self.lines) == 3

    def test_status_line_contents(self):
        prog = self._progress(total=3)
        prog.on_event(SWEEP_TASK_COMPLETE, {})
        prog.note_attempt_seconds(2.0)
        line = prog.status_line()
        assert line == "sweep: 1/3 done | attempt EWMA 2.00s | ETA 4s"

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            SweepProgress(-1)
        with pytest.raises(ObservabilityError):
            SweepProgress(1, interval=-0.1)
