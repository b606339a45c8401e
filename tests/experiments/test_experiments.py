"""Tests for the experiment modules (quick configurations).

Each experiment is run at reduced size and its *shape claims* — the
qualitative statements the paper makes — are asserted, not just smoke.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablation,
    adaptation,
    apps_eval,
    costs,
    example1,
    fig1,
    fig2,
    fig3,
    ordered,
    pareto,
    theory,
)


class TestPareto:
    @pytest.fixture(scope="class")
    def result(self):
        return pareto.run(n=600, d=10, rhos=(0.05, 0.2, 0.5), replications=1, seed=0)

    def test_makespan_falls_with_rho(self, result):
        s = result.scalars
        assert s["makespan_rho0.5"] < s["makespan_rho0.05"]

    def test_waste_rises_with_rho(self, result):
        s = result.scalars
        assert s["waste_rho0.5"] > s["waste_rho0.05"]

    def test_delivered_waste_tracks_target(self, result):
        assert result.scalars["waste_rho0.2"] == pytest.approx(0.2, abs=0.1)

    def test_validation(self):
        with pytest.raises(Exception):
            pareto.run(n=100, replications=0)
        with pytest.raises(Exception):
            pareto.run(n=100, rhos=(0.0,))


class TestCosts:
    def test_optimal_rho_nonincreasing_in_abort_factor(self):
        res = costs.run(
            n=600,
            d=10,
            abort_factors=(0.25, 4.0),
            rhos=(0.05, 0.2, 0.45),
            machine_size=64,
            replications=1,
            seed=1,
        )
        assert res.scalars["best_rho_factor4"] <= res.scalars["best_rho_factor0.25"]

    def test_validation(self):
        with pytest.raises(Exception):
            costs.run(n=100, replications=0)
        with pytest.raises(Exception):
            costs.run(n=100, idle_power=2.0)


class TestOrdered:
    @pytest.fixture(scope="class")
    def result(self):
        return ordered.run(
            num_stations=12, num_jobs=15, end_time=10.0, fixed_ms=(1, 4, 16), seed=2
        )

    def test_sequential_baseline_has_unit_speedup(self, result):
        assert result.scalars["speedup_m1"] == pytest.approx(1.0)

    def test_speedup_saturates(self, result):
        assert result.scalars["speedup_m16"] <= 2.0 * result.scalars["speedup_m4"]

    def test_hybrid_reported(self, result):
        assert result.scalars["hybrid_speedup"] > 0
        assert result.scalars["hybrid_mean_m"] >= 2


class TestFig1:
    def test_panels_valid(self):
        res = fig1.run(n=16, d=2.5, m=8, panels=4, seed=0)
        assert res.scalars["all_panels_valid"] == 1.0
        assert len(res.tables) == 4

    def test_panel_structure(self):
        p = fig1.panel(12, 2.0, 6, seed=1)
        assert len(p["order"]) == 6
        assert sorted(p["committed"] + p["aborted"]) == sorted(p["order"])
        assert p["independent"] and p["maximal"]

    def test_render_shows_commit_order(self):
        res = fig1.run(panels=1, seed=2)
        assert "chosen (commit order)" in res.render()


@pytest.fixture(scope="module")
def fig2_result():
    return fig2.run(n=400, d=8, grid_size=10, reps=60, seed=0)


class TestFig2:
    def test_three_curves_present(self, fig2_result):
        names = [name.split(" (")[0] for name, _, _ in fig2_result.series]
        assert names == ["worst-case bound", "random graph", "cliques+isolated"]

    def test_bound_dominates_random(self, fig2_result):
        assert fig2_result.scalars["bound_dominates_random_fraction"] == 1.0

    def test_curves_nondecreasing_up_to_noise(self, fig2_result):
        for name, _, ys in fig2_result.series:
            arr = np.asarray(ys)
            assert np.all(np.diff(arr) > -0.08), name

    def test_initial_derivative_scalar(self, fig2_result):
        assert fig2_result.scalars["initial_derivative_formula"] == pytest.approx(
            8 / (2 * 399)
        )

    def test_average_degrees_matched(self, fig2_result):
        assert fig2_result.scalars["random_d"] == pytest.approx(8.0, abs=0.01)
        assert fig2_result.scalars["cliques_d"] == pytest.approx(8.0, abs=0.6)

    def test_render_contains_table(self, fig2_result):
        text = fig2_result.render()
        assert "worst-case" in text and "FIG2" in text

    def test_cliques_flatten_random_keeps_growing(self, fig2_result):
        """Fig. 2 shape: the cliques∪isolated curve saturates well below
        the random graph at m = n."""
        series = {name: np.asarray(ys) for name, _, ys in fig2_result.series}
        assert series["cliques+isolated"][-1] < series["random graph"][-1]


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(n=1000, degrees=(16,), rho=0.2, steps=120, seed=3)

    def test_hybrid_much_faster_than_a(self, result):
        assert result.scalars["settle_hybrid_d16"] * 2 <= result.scalars["settle_recA_d16"]

    def test_hybrid_settles_fast(self, result):
        """Paper: ≈15 steps; allow 2x at this reduced size."""
        assert result.scalars["settle_hybrid_d16"] <= 30

    def test_tail_conflict_ratio_near_rho(self, result):
        table = result.tables[0]
        row = table[2][0]
        r_tail_hybrid = row[5]
        assert r_tail_hybrid == pytest.approx(0.2, abs=0.08)


class TestExample1:
    def test_exact_expectation_is_two(self):
        res = example1.run(sizes=(8, 16), reps=300, seed=1)
        assert res.scalars["exact_n8"] == pytest.approx(2.0)
        assert res.scalars["exact_n16"] == pytest.approx(2.0)

    def test_mc_confirms(self):
        res = example1.run(sizes=(10,), reps=3000, seed=2)
        _, _, rows = res.tables[0]
        n, max_is, exact, mc, half, bm = rows[0]
        assert abs(mc - exact) <= 3 * half
        assert max_is == 11

    def test_exact_closed_form_function(self):
        assert example1.expected_committed_exact(5) == pytest.approx(2.0)


class TestTheory:
    @pytest.fixture(scope="class")
    def result(self):
        return theory.run(n=170, d=16, reps=400, seed=4)

    def test_no_thm2_violations(self, result):
        assert result.scalars["thm2_violations"] == 0.0

    def test_cor3_smart_start_value(self, result):
        assert result.scalars["cor3_alpha_half_bound"] == pytest.approx(0.213, abs=5e-4)

    def test_prop2_rows_match(self, result):
        title, headers, rows = result.tables[0]
        for name, n, d, formula, mc, half in rows:
            assert abs(mc - formula) <= 3 * half + 2e-3, name

    def test_thm3_rows_match(self, result):
        title, headers, rows = result.tables[1]
        for m, exact, mc, half in rows:
            # +0.01 absolute slack: near saturation every draw hits every
            # clique, so the MC half-width collapses to zero while the
            # closed form is still a hair below s
            assert abs(mc - exact) <= 3 * half + 0.01

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            theory.run(n=100, d=16)


class TestAdaptation:
    def test_hybrid_tracks_step_profile(self):
        res = adaptation.run(profiles=("step",), total_tasks=600, seed=5)
        lag_hybrid = res.scalars["step_hybrid_mean_lag"]
        lag_a = res.scalars["step_recA_mean_lag"]
        assert lag_hybrid < lag_a
        assert lag_hybrid <= 40

    def test_transition_lag_helper(self):
        from repro.apps.profiles import Phase, clique_sizes

        phases = [Phase(5, clique_sizes(2, 10)), Phase(5, clique_sizes(2, 10))]
        m_trace = np.array([2, 2, 10, 10, 10, 3, 10, 10, 10, 10])
        lags = adaptation.transition_lags(phases, m_trace, [10, 10])
        assert lags == [2, 1]


class TestAppsEval:
    @pytest.fixture(scope="class")
    def result(self):
        return apps_eval.run(apps=("coloring",), scale=200, fixed_ms=(2, 64), max_steps=3000, seed=6)

    def test_small_fixed_slow_but_clean(self, result):
        steps_2 = result.scalars["coloring_fixed-2_steps"]
        steps_64 = result.scalars["coloring_fixed-64_steps"]
        assert steps_2 > steps_64
        assert result.scalars["coloring_fixed-2_waste"] <= result.scalars["coloring_fixed-64_waste"]

    def test_hybrid_sits_on_the_tradeoff_frontier(self, result):
        """Hybrid lands between the fixed extremes on BOTH axes: faster
        than the small allocation, far less wasteful than the big one."""
        s = result.scalars
        assert s["coloring_fixed-64_steps"] <= s["coloring_hybrid_steps"] <= s["coloring_fixed-2_steps"]
        assert s["coloring_fixed-2_waste"] <= s["coloring_hybrid_waste"] <= s["coloring_fixed-64_waste"]


class TestBuildApp:
    def test_all_known_apps_constructible(self):
        for name in ("delaunay", "boruvka", "coloring", "sp", "maxflow", "components"):
            app = apps_eval.build_app(name, 60, seed=0)
            assert hasattr(app, "policy")
            assert hasattr(app, "workset")

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            apps_eval.build_app("nope", 60, seed=0)


class TestAblation:
    def test_runs_and_orders_sanely(self):
        res = ablation.run(n=600, d=12, steps=100, replications=2, seed=7)
        settle = {k.removeprefix("settle::"): v for k, v in res.scalars.items() if k.startswith("settle::")}
        assert settle["oracle"] == 0.0
        assert settle["smart start"] <= settle["A-only"]
        assert settle["hybrid (paper)"] <= settle["A-only"]
