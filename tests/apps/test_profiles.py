"""Tests for repro.apps.profiles — scheduled replay workloads."""

import numpy as np
import pytest

from repro.apps.profiles import (
    Phase,
    ScheduledReplayWorkload,
    clique_sizes,
    delaunay_burst_profile,
    spike_profile,
    step_profile,
)
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.control.tuning import oracle_mu
from repro.errors import ApplicationError, ModelError
from repro.experiments.fig3 import default_hybrid
from repro.graph.ccgraph import CCGraph
from repro.model.seating import expected_mis
from repro.model.turan import em_disjoint_cliques, mu_disjoint_cliques
from repro.runtime.active_set import ActiveSet
from repro.runtime.conflict import BatchOutcome, ConflictPolicy
from repro.runtime.engine import make_engine
from repro.runtime.task import CallbackOperator, Task


def _clique_graph(sizes) -> CCGraph:
    """The disjoint union of cliques of *sizes*, clique by clique."""
    g = CCGraph()
    for size in sizes:
        ids = [g.add_node() for _ in range(size)]
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                g.add_edge(u, v)
    return g


class TestCliqueSizes:
    def test_exact_available_parallelism(self):
        sizes = clique_sizes(7, 70)
        assert em_disjoint_cliques(sizes, 70) == pytest.approx(7.0)
        mis = expected_mis(_clique_graph(sizes), reps=50, seed=0)
        assert mis.mean == pytest.approx(7.0, abs=1e-9)

    def test_remainder_distribution(self):
        assert clique_sizes(3, 10) == (4, 3, 3)
        assert clique_sizes(4, 8) == (2, 2, 2, 2)

    def test_validation(self):
        with pytest.raises(ApplicationError):
            clique_sizes(0, 10)
        with pytest.raises(ApplicationError):
            clique_sizes(10, 5)


class TestProfileBuilders:
    def test_step_profile_shape(self):
        phases = step_profile(2, 50, 200, steps_per_phase=30)
        assert len(phases) == 3
        assert [p.duration for p in phases] == [30, 30, 30]

    def test_spike_profile_shape(self):
        phases = spike_profile(2, 80, 200, base_steps=10, peak_steps=4)
        assert [p.label for p in phases] == ["base", "spike", "base"]

    def test_delaunay_burst_reaches_peak(self):
        phases = delaunay_burst_profile(peak=200, total_tasks=800, rise_steps=30)
        assert len(phases[-1].sizes) == 200
        assert sum(phases[-1].sizes) == 800

    def test_phase_validation(self):
        with pytest.raises(ApplicationError):
            Phase(0, (1, 1, 1))
        with pytest.raises(ApplicationError):
            Phase(5, ())
        with pytest.raises(ApplicationError):
            Phase(5, (2, 0))


class TestScheduledReplay:
    def test_transitions_at_phase_boundaries(self):
        phases = step_profile(2, 40, 100, steps_per_phase=20)
        wl = ScheduledReplayWorkload(phases)
        eng = make_engine(wl, FixedController(4), seed=0, step_hook=wl.advance)
        eng.run(max_steps=wl.total_steps())
        assert wl.transitions == [20, 40]

    def test_workset_refilled_on_switch(self):
        phases = [
            Phase(3, clique_sizes(2, 10)),
            Phase(3, clique_sizes(5, 25)),
        ]
        wl = ScheduledReplayWorkload(phases)
        eng = make_engine(wl, FixedController(2), seed=1, step_hook=wl.advance)
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
            Phase(30, clique_sizes(1, 100), "serial"),
            Phase(30, clique_sizes(100, 100), "parallel"),
        ]
        wl = ScheduledReplayWorkload(phases)
        eng = make_engine(wl, FixedController(20), seed=2, step_hook=wl.advance)
        res = eng.run(max_steps=60)
        rs = res.r_trace
        assert rs[:30].mean() > 0.9  # one big clique
        assert rs[30:].mean() == 0.0  # isolated nodes

    def test_controller_retracks_after_switch(self):
        phases = step_profile(4, 150, 600, steps_per_phase=50)
        wl = ScheduledReplayWorkload(phases)
        eng = make_engine(wl, HybridController(0.2), seed=3, step_hook=wl.advance)
        res = eng.run(max_steps=wl.total_steps())
        ms = res.m_trace
        # allocation grows after the low->high switch and shrinks back
        assert ms[45:50].mean() < ms[95:100].mean()
        assert ms[145:150].mean() < ms[95:100].mean()

    def test_last_phase_holds(self):
        phases = [Phase(2, clique_sizes(2, 10))]
        wl = ScheduledReplayWorkload(phases)
        eng = make_engine(wl, FixedController(2), seed=4, step_hook=wl.advance)
        res = eng.run(max_steps=10)  # beyond the schedule
        assert len(res) == 10


class _DelegatingGraphPolicy(ConflictPolicy):
    """The greedy walk over the twin's current phase graph."""

    def __init__(self, workload):
        self._workload = workload

    def resolve(self, batch, operator) -> BatchOutcome:
        graph = self._workload.graph
        committed_nodes: set[int] = set()
        committed, aborted = [], []
        for task in batch:
            if committed_nodes.isdisjoint(graph.neighbors(task.payload)):
                committed_nodes.add(task.payload)
                committed.append(task)
            else:
                aborted.append(task)
        return BatchOutcome(committed, aborted)


class _GraphBackedSchedule:
    """Twin of :class:`ScheduledReplayWorkload` that materialises each
    phase's clique-union CC graph and walks its edges (one task per node,
    payload the node id, contiguous clique blocks)."""

    def __init__(self, phases):
        self.phases = phases
        self._phase_idx = 0
        self._steps_left = phases[0].duration
        self.graph = _clique_graph(phases[0].sizes)
        self.operator = CallbackOperator(
            neighborhood=lambda t: self.graph.neighbors(t.payload), apply=lambda t: [t]
        )
        self.policy = _DelegatingGraphPolicy(self)
        self._fill_workset()

    def _fill_workset(self):
        self.workset = ActiveSet()
        for node in self.graph.nodes():
            self.workset.add(Task(payload=node))

    def advance(self, engine, stats):
        self._steps_left -= 1
        if self._steps_left > 0 or self._phase_idx + 1 >= len(self.phases):
            return
        self._phase_idx += 1
        self._steps_left = self.phases[self._phase_idx].duration
        self.graph = _clique_graph(self.phases[self._phase_idx].sizes)
        self._fill_workset()
        engine.workset = self.workset


def _step_rows(workload, controller, seed):
    engine = make_engine(workload, controller, seed=seed, step_hook=workload.advance)
    res = engine.run(max_steps=sum(p.duration for p in workload.phases))
    return [
        (s.requested, s.launched, s.committed, s.aborted, s.workset_before, s.workset_after)
        for s in res.steps
    ]


class TestGraphTwin:
    """Item locks on the clique label reproduce the graph walk step for step."""

    PROFILES = {
        "step": lambda: step_profile(3, 40, 160, steps_per_phase=25),
        "spike": lambda: spike_profile(2, 60, 150, base_steps=20, peak_steps=10),
        "burst": lambda: delaunay_burst_profile(
            peak=50, total_tasks=200, rise_steps=18, hold_steps=20
        ),
    }
    CONTROLLERS = {
        "hybrid": lambda: HybridController(0.2),
        "default_hybrid": lambda: default_hybrid(0.2),
    }

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_step_stats_identical(self, profile, controller, seed):
        phases = self.PROFILES[profile]()
        make = self.CONTROLLERS[controller]
        ours = _step_rows(ScheduledReplayWorkload(phases), make(), seed)
        twin = _step_rows(_GraphBackedSchedule(phases), make(), seed)
        assert ours == twin
        assert sum(row[3] for row in ours) > 0  # the walk did reject tasks

    def test_full_size_burst_builds_no_edges(self, monkeypatch):
        from repro.experiments.adaptation import _profile

        def forbidden(*args, **kwargs):
            raise AssertionError("a phase materialised a CC graph edge")

        monkeypatch.setattr(CCGraph, "add_edge", forbidden)
        wl = ScheduledReplayWorkload(_profile("burst", 2000))
        eng = make_engine(wl, HybridController(0.2), seed=0, step_hook=wl.advance)
        res = eng.run(max_steps=wl.total_steps())
        assert len(res) == wl.total_steps()


def _brute_mu(sizes, rho):
    n = sum(sizes)
    ok = [m for m in range(1, n + 1) if 1.0 - em_disjoint_cliques(sizes, m) / m <= rho]
    return max(max(ok), 2)


class TestMuDisjointCliques:
    @pytest.mark.parametrize(
        "sizes",
        [(1,), (5,), (1, 1, 1, 1), (3, 3), (4, 1, 2), (2, 7, 1, 1, 5), (10,) * 6, (1,) * 5 + (30,)],
    )
    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.35, 0.6])
    def test_equals_brute_scan(self, sizes, rho):
        assert mu_disjoint_cliques(sizes, rho) == _brute_mu(sizes, rho)

    @pytest.mark.parametrize("parallelism,n", [(4, 120), (25, 300), (60, 240)])
    def test_agrees_with_monte_carlo_within_grid(self, parallelism, n):
        """The exact μ lies within one grid cell of ``oracle_mu``'s estimate."""
        sizes = clique_sizes(parallelism, n)
        exact = mu_disjoint_cliques(sizes, 0.2)
        mc = oracle_mu(_clique_graph(sizes), 0.2, reps=200, seed=parallelism)
        grid = np.unique(np.geomspace(1, n, 24).astype(int))
        i = int(np.searchsorted(grid, mc, side="right"))
        lo = grid[max(i - 2, 0)]
        hi = grid[min(i, len(grid) - 1)]
        assert lo <= exact <= hi

    def test_validation(self):
        with pytest.raises(ModelError):
            mu_disjoint_cliques((3, 3), 0.0)
        with pytest.raises(ModelError):
            mu_disjoint_cliques((3, 3), 1.0)
        with pytest.raises(ModelError):
            mu_disjoint_cliques((3, 0), 0.2)
