"""Tests for repro.obs.replay — deterministic replay of recorded runs."""

import numpy as np
import pytest

from repro import RunConfig, registry
from repro.control import (
    AIMDController,
    Controller,
    AStealController,
    BisectionController,
    FixedController,
    HybridController,
    OracleController,
    PIController,
)
from repro.errors import ObservabilityError, ReplayMismatchError
from repro.graph.generators import gnm_random
from repro.obs import (
    ReplayController,
    TraceRecorder,
    controller_from_config,
    controller_from_trace,
    replay_decisions,
    split_runs,
    trajectory,
    verify_trace,
)
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload


def record_run(controller, n=60, d=6, graph_seed=3, engine_seed=11, max_steps=40):
    """Run *controller* on a draining gnm workload under a fresh recorder."""
    rec = TraceRecorder()
    workload = ConsumingGraphWorkload(gnm_random(n, d, seed=graph_seed))
    engine = make_engine(workload, controller, seed=engine_seed, recorder=rec)
    engine.run(max_steps=max_steps)
    return rec.events


CONTROLLERS = {
    type(c).__name__: c
    for c in [
        HybridController(0.25, m_max=64),
        AIMDController(0.25, m_max=64),
        PIController(0.25, m_max=64),
        AStealController(0.25, m_max=64),
        BisectionController(0.25, m_max=64),
        FixedController(6),
        OracleController(9, m_max=64),
    ]
}
# the recurrence presets, built the way a RunConfig names them
CONTROLLERS.update(
    (name, registry("controller").create(name, RunConfig(rho=0.25, m_max=64)))
    for name in ("recurrence-a", "recurrence-b")
)


class TestReplayAcrossControllers:
    @pytest.mark.parametrize(
        "controller", CONTROLLERS.values(), ids=list(CONTROLLERS)
    )
    def test_replay_reproduces_m_trajectory(self, controller):
        events = record_run(controller)
        reports = verify_trace(events)
        assert len(reports) == 1
        report = reports[0]
        assert report.matches and report.first_divergence() == -1
        assert report.controller_type == type(controller).__name__
        assert report.steps > 0


class TestTraceHelpers:
    def test_split_runs_segments_at_run_start(self):
        first = record_run(FixedController(4))
        second = record_run(FixedController(8))
        segments = split_runs(first + second)
        assert len(segments) == 2
        assert segments[0][0].kind == "run_start"
        assert trajectory(segments[0])[0][0] == 4
        assert trajectory(segments[1])[0][0] == 8

    def test_split_runs_discards_headless_prefix(self):
        events = record_run(FixedController(4))
        # cut off the run_start, as a ring-buffer overflow would
        segments = split_runs(events[1:])
        assert segments == []

    def test_trajectory_shapes(self):
        events = record_run(HybridController(0.25, m_max=64))
        ms, rs = trajectory(events)
        assert ms.shape == rs.shape and ms.dtype == np.int64
        assert (ms >= 1).all() and (rs >= 0).all() and (rs <= 1).all()

    def test_commit_accounting_in_step_events(self):
        events = record_run(HybridController(0.25, m_max=64))
        for e in events:
            if e.kind == "step":
                assert e.data["committed"] + e.data["aborted"] == e.data["launched"]
                assert len(e.data["commit_positions"]) == e.data["committed"]
                assert len(e.data["abort_positions"]) == e.data["aborted"]


class TestControllerReconstruction:
    def test_round_trip_preserves_describe(self):
        from repro.experiments.sharding import PerShardController

        per_shard = PerShardController(
            [HybridController(0.25, m_max=32) for _ in range(3)], None
        )
        for controller in [*CONTROLLERS.values(), per_shard]:
            config = controller.describe()
            rebuilt = controller_from_config(config)
            assert type(rebuilt) is type(controller)
            assert rebuilt.describe() == config

    def test_replay_controller_description_is_not_rebuildable(self):
        # it describes only its length, not the recorded sequence
        with pytest.raises(ObservabilityError, match="ReplayController"):
            controller_from_config(ReplayController([2, 3]).describe())

    def test_missing_type_raises(self):
        with pytest.raises(ObservabilityError):
            controller_from_config({"rho": 0.25})

    def test_unknown_type_raises(self):
        with pytest.raises(ObservabilityError, match="Imaginary"):
            controller_from_config({"type": "ImaginaryController"})

    def test_controller_from_trace_requires_run_start(self):
        with pytest.raises(ObservabilityError):
            controller_from_trace([])


class CountdownController(Controller):
    """A third-party controller: m counts down from *start* to 2."""

    def __init__(self, start: int = 8) -> None:
        super().__init__()
        self.start = start

    def _next_m(self) -> int:
        return max(2, self.start - len(self.trace.observations))

    def describe(self) -> dict:
        return {**super().describe(), "start": self.start}


class TestRegisteredControllerReplays:
    def test_registered_controller_replays_without_a_builder(self):
        import repro

        repro.register(
            "controller", "countdown", lambda config: CountdownController(start=9)
        )
        try:
            recorder = TraceRecorder()
            repro.run(
                repro.RunConfig(workload="consuming", controller="countdown"),
                graph=gnm_random(60, 6, seed=3),
                seed=11,
                recorder=recorder,
            )
        finally:
            repro.registry("controller").unregister("countdown")
        (report,) = verify_trace(recorder.events)
        assert report.controller_type == "CountdownController"
        assert report.matches and report.steps > 0
        assert report.m_replayed[0] == 9


class TestMismatchDetection:
    def test_tampered_trace_is_caught(self):
        from repro.obs import TraceEvent

        events = list(record_run(HybridController(0.25, m_max=64)))
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind == "step" and e.data["requested"] > 2
        )
        data = dict(events[idx].data)
        data["requested"] += 1  # corrupt one recorded decision
        events[idx] = TraceEvent(step=events[idx].step, kind="step", data=data)
        with pytest.raises(ReplayMismatchError, match="diverged at step"):
            verify_trace(events)

    def test_replay_with_explicit_controller_mismatch(self):
        events = record_run(HybridController(0.25, m_max=64))
        report = replay_decisions(events, controller=FixedController(3))
        assert not report.matches
        assert report.first_divergence() >= 0


class TestReplayController:
    def test_replays_fixed_sequence(self):
        rc = ReplayController([2, 4, 8])
        out = []
        for r in (0.1, 0.2, 0.3):
            out.append(rc.propose())
            rc.observe(r, out[-1])
        assert out == [2, 4, 8]
        assert rc.remaining == 0

    def test_exhaustion_raises(self):
        rc = ReplayController([2])
        rc.propose()
        rc.observe(0.0, 2)
        with pytest.raises(ReplayMismatchError):
            rc.propose()

    def test_reset_rewinds(self):
        rc = ReplayController([2, 3])
        rc.propose()
        rc.observe(0.0, 2)
        rc.reset()
        assert rc.propose() == 2

    def test_from_trace_drives_engine_identically(self):
        events = record_run(HybridController(0.25, m_max=64), engine_seed=99)
        ms, rs = trajectory(events)
        rc = ReplayController.from_trace(events)
        replay_events = record_run(rc, engine_seed=99)
        ms2, rs2 = trajectory(replay_events)
        assert np.array_equal(ms, ms2)
        assert np.array_equal(rs, rs2)  # same seed + same m_t => same run

    def test_empty_sequence_rejected(self):
        with pytest.raises(ObservabilityError):
            ReplayController([])
        with pytest.raises(ObservabilityError):
            ReplayController([0])
