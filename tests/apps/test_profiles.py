"""Tests for repro.apps.profiles — scheduled replay workloads."""

import numpy as np
import pytest

from repro.apps.profiles import (
    Phase,
    ScheduledReplayWorkload,
    delaunay_burst_profile,
    graph_for_parallelism,
    ramp_profile,
    spike_profile,
    step_profile,
)
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError
from repro.model.seating import expected_mis


class TestGraphForParallelism:
    def test_exact_available_parallelism(self):
        g = graph_for_parallelism(7, 70)
        mis = expected_mis(g, reps=50, seed=0)
        assert mis.mean == pytest.approx(7.0, abs=1e-9)

    def test_remainder_distribution(self):
        g = graph_for_parallelism(3, 10)  # sizes 4, 3, 3
        assert g.num_nodes == 10
        degs = sorted(g.degree(u) for u in g)
        assert degs[0] == 2 and degs[-1] == 3

    def test_validation(self):
        with pytest.raises(ApplicationError):
            graph_for_parallelism(0, 10)
        with pytest.raises(ApplicationError):
            graph_for_parallelism(10, 5)


class TestProfileBuilders:
    def test_step_profile_shape(self):
        phases = step_profile(2, 50, 200, steps_per_phase=30)
        assert len(phases) == 3
        assert [p.duration for p in phases] == [30, 30, 30]

    def test_ramp_is_increasing(self):
        phases = ramp_profile(2, 100, 400, stages=5)
        sizes = [expected_mis(p.graph, reps=20, seed=0).mean for p in phases]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_ramp_validation(self):
        with pytest.raises(ApplicationError):
            ramp_profile(2, 100, 400, stages=1)

    def test_spike_profile_shape(self):
        phases = spike_profile(2, 80, 200, base_steps=10, peak_steps=4)
        assert [p.label for p in phases] == ["base", "spike", "base"]

    def test_delaunay_burst_reaches_peak(self):
        phases = delaunay_burst_profile(peak=200, total_tasks=800, rise_steps=30)
        peak_mis = expected_mis(phases[-1].graph, reps=20, seed=0).mean
        assert peak_mis == pytest.approx(200, abs=1e-9)

    def test_phase_validation(self):
        from repro.graph.generators import empty_graph

        with pytest.raises(ApplicationError):
            Phase(0, empty_graph(3))
        with pytest.raises(ApplicationError):
            Phase(5, empty_graph(0))


class TestScheduledReplay:
    def test_transitions_at_phase_boundaries(self):
        phases = step_profile(2, 40, 100, steps_per_phase=20)
        wl = ScheduledReplayWorkload(phases)
        eng = wl.make_engine(FixedController(4), seed=0)
        eng.run(max_steps=wl.total_steps())
        assert wl.transitions == [20, 40]

    def test_workset_refilled_on_switch(self):
        phases = [
            Phase(3, graph_for_parallelism(2, 10)),
            Phase(3, graph_for_parallelism(5, 25)),
        ]
        wl = ScheduledReplayWorkload(phases)
        eng = wl.make_engine(FixedController(2), seed=1)
        eng.run(max_steps=6)
        assert len(wl.workset) == 25  # second phase graph size

    def test_empty_schedule_rejected(self):
        with pytest.raises(ApplicationError):
            ScheduledReplayWorkload([])

    def test_total_steps(self):
        phases = step_profile(2, 4, 20, steps_per_phase=7)
        assert ScheduledReplayWorkload(phases).total_steps() == 21

    def test_conflict_ratio_tracks_phase(self):
        """Fixed m=20: serial phase shows heavy conflicts, parallel phase none."""
        phases = [
            Phase(30, graph_for_parallelism(1, 100), "serial"),
            Phase(30, graph_for_parallelism(100, 100), "parallel"),
        ]
        wl = ScheduledReplayWorkload(phases)
        eng = wl.make_engine(FixedController(20), seed=2)
        res = eng.run(max_steps=60)
        rs = res.r_trace
        assert rs[:30].mean() > 0.9  # one big clique
        assert rs[30:].mean() == 0.0  # isolated nodes

    def test_controller_retracks_after_switch(self):
        phases = step_profile(4, 150, 600, steps_per_phase=50)
        wl = ScheduledReplayWorkload(phases)
        eng = wl.make_engine(HybridController(0.2), seed=3)
        res = eng.run(max_steps=wl.total_steps())
        ms = res.m_trace
        # allocation grows after the low->high switch and shrinks back
        assert ms[45:50].mean() < ms[95:100].mean()
        assert ms[145:150].mean() < ms[95:100].mean()

    def test_last_phase_holds(self):
        phases = [Phase(2, graph_for_parallelism(2, 10))]
        wl = ScheduledReplayWorkload(phases)
        eng = wl.make_engine(FixedController(2), seed=4)
        res = eng.run(max_steps=10)  # beyond the schedule
        assert len(res) == 10
