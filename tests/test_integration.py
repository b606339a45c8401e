"""End-to-end integration tests of the paper's headline claims.

These run at moderate scale (seconds, not minutes) and tie together the
model layer, the runtime and the controllers — the statements a referee
would spot-check.
"""

import numpy as np
import pytest

from repro.control import (
    FixedController,
    RECURRENCE_A,
    HybridController,
    oracle_mu,
)
from repro.experiments.fig3 import default_hybrid
from repro.graph import gnm_random, kdn_worst_case
from repro.model import (
    estimate_conflict_ratio,
    estimate_em,
    worst_case_conflict_ratio,
)
from repro.runtime import ReplayGraphWorkload, make_engine


@pytest.fixture(scope="module")
def fig3_graph():
    return gnm_random(2000, 16, seed=2024)


@pytest.fixture(scope="module")
def fig3_mu(fig3_graph):
    return oracle_mu(fig3_graph, 0.2, reps=120, seed=1)


class TestHeadlineClaims:
    def test_hybrid_converges_in_about_15_steps(self, fig3_graph, fig3_mu):
        """§4.1: 'in about 15 steps the controller converges close to μ'."""
        settles = []
        for seed in range(3):
            wl = ReplayGraphWorkload(fig3_graph.copy())
            eng = make_engine(wl, default_hybrid(0.2), seed=seed)
            res = eng.run(max_steps=100)
            settles.append(res.settling_step(fig3_mu, band=0.35))
        assert np.median(settles) <= 20

    def test_recurrence_a_is_an_order_slower(self, fig3_graph, fig3_mu):
        wl = ReplayGraphWorkload(fig3_graph.copy())
        eng = make_engine(wl, HybridController(0.2, params=RECURRENCE_A), seed=0)
        res = eng.run(max_steps=200)
        assert res.settling_step(fig3_mu, band=0.35) >= 50

    def test_hybrid_steady_state_hits_rho(self, fig3_graph):
        wl = ReplayGraphWorkload(fig3_graph.copy())
        eng = make_engine(wl, default_hybrid(0.2), seed=5)
        res = eng.run(max_steps=120)
        assert res.r_trace[40:].mean() == pytest.approx(0.2, abs=0.05)

    def test_worst_case_bound_holds_at_scale(self, fig3_graph):
        """Thm. 2/3 at Fig. 2's size: bound dominates the random graph."""
        n, d = 2000, 16
        for m in (60, 200, 600):
            mc = estimate_conflict_ratio(fig3_graph, m, reps=120, seed=m)
            bound = worst_case_conflict_ratio(2006 - 2006 % 17, d, m)  # nearest valid n
            assert mc.mean <= bound + 0.02

    def test_kdn_is_attained_worst_case(self):
        n, d, m = 2006 - 2006 % 17, 16, 100
        g = kdn_worst_case(n, d)
        mc = estimate_em(g, m, reps=300, seed=0)
        assert 1.0 - mc.mean / m == pytest.approx(
            worst_case_conflict_ratio(n, d, m), abs=3 * mc.half_width / m + 1e-6
        )

    def test_rho_zero_pathology_of_remark1(self, fig3_graph):
        """Remark 1: chasing ρ→0 collapses the allocation to m_min."""
        wl = ReplayGraphWorkload(fig3_graph.copy())
        eng = make_engine(wl, HybridController(0.005), seed=6)
        res = eng.run(max_steps=80)
        assert res.m_trace[-1] == 2

    def test_oracle_fixed_allocation_is_competitive(self, fig3_graph, fig3_mu):
        """Fixed at μ achieves r̄ ≈ ρ — the fixed point the paper defines."""
        wl = ReplayGraphWorkload(fig3_graph.copy())
        eng = make_engine(wl, FixedController(fig3_mu), seed=7)
        res = eng.run(max_steps=60)
        assert res.r_trace.mean() == pytest.approx(0.2, abs=0.05)


class TestContinuousDrift:
    def test_tracks_slowly_densifying_environment(self):
        """The regenerating workload's density ramps 4 → 40 over the run;
        the allocation must come down with the shrinking parallelism."""
        from repro.runtime import RegeneratingGraphWorkload

        g = gnm_random(1200, 4, seed=11)
        wl = RegeneratingGraphWorkload(g, target_degree=4, seed=12)
        steps_total = 240

        def densify(engine, stats):
            frac = stats.step / steps_total
            wl.target_degree = int(4 + 36 * frac)

        ctrl = HybridController(0.2, m_max=512)
        engine = make_engine(wl, ctrl, seed=13, step_hook=densify)
        res = engine.run(max_steps=steps_total)
        early = res.m_trace[30:60].mean()
        late = res.m_trace[-30:].mean()
        assert late < 0.6 * early  # allocation followed the density ramp
        assert res.r_trace[-60:].mean() == pytest.approx(0.2, abs=0.08)


class TestDrainingRun:
    def test_hybrid_tracks_decaying_parallelism(self):
        """On a consuming workload conflicts vanish as the graph drains;
        the controller should ramp m UP over time (more parallelism)."""
        from repro.runtime import ConsumingGraphWorkload

        g = gnm_random(3000, 20, seed=3)
        wl = ConsumingGraphWorkload(g)
        eng = make_engine(wl, HybridController(0.25, m_max=256), seed=4)
        res = eng.run(max_steps=500)
        ms = res.m_trace
        early = ms[8:28].mean()
        late_idx = min(len(ms) - 20, 200)
        late = ms[late_idx : late_idx + 20].mean()
        assert late > early

    def test_total_work_conserved(self):
        from repro.runtime import ConsumingGraphWorkload

        g = gnm_random(800, 10, seed=8)
        wl = ConsumingGraphWorkload(g)
        res = make_engine(wl, HybridController(0.25), seed=9).run()
        assert res.total_committed == 800
