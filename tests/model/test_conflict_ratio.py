"""Tests for repro.model.conflict_ratio — r̄(m), k̄(m), b_m and Lemma 1/Prop 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.graph.generators import (
    complete_graph,
    empty_graph,
    gnm_random,
    union_of_cliques,
)
from repro.model.conflict_ratio import (
    conflict_ratio_curve,
    estimate_conflict_ratio,
    estimate_em,
    estimate_kbar,
    exact_conflict_ratio,
    exact_kbar,
    first_come_bound,
    first_come_probability,
)
from repro.model.turan import em_kdn


def _is_nondecreasing(values, atol=0.0):
    """True iff the sampled sequence is non-decreasing up to *atol*."""
    return bool(np.all(np.diff(np.asarray(values, dtype=float)) >= -atol))


def _is_convex(values, atol=0.0):
    """True iff the sampled sequence is discretely convex up to *atol*."""
    return bool(np.all(np.diff(np.asarray(values, dtype=float), n=2) >= -atol))


class TestExactEnumeration:
    def test_empty_graph_no_conflicts(self):
        g = empty_graph(5)
        for m in range(1, 6):
            assert exact_conflict_ratio(g, m) == 0.0

    def test_complete_graph_closed_form(self):
        # on K_n exactly one commits: k̄(m) = m − 1
        g = complete_graph(6)
        for m in range(1, 7):
            assert exact_kbar(g, m) == pytest.approx(m - 1)
            assert exact_conflict_ratio(g, m) == pytest.approx((m - 1) / m)

    def test_single_edge_two_nodes(self):
        # P[both chosen] = 1 for m=2 -> k̄ = 1
        from repro.graph.ccgraph import CCGraph

        g = CCGraph.from_edges(2, [(0, 1)])
        assert exact_kbar(g, 2) == pytest.approx(1.0)
        assert exact_kbar(g, 1) == pytest.approx(0.0)

    def test_refuses_explosive_enumeration(self):
        with pytest.raises(ModelError):
            exact_kbar(gnm_random(30, 3, seed=0), 15)

    def test_m_zero(self):
        assert exact_kbar(empty_graph(3), 0) == 0.0

    def test_ratio_requires_positive_m(self, small_graph):
        with pytest.raises(ModelError):
            exact_conflict_ratio(small_graph, 0)


class TestMonteCarloAgainstExact:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(3, 7), st.data())
    def test_mc_matches_enumeration(self, n, data):
        g = gnm_random(n, min(2.0, n - 1), seed=data.draw(st.integers(0, 100)))
        m = data.draw(st.integers(1, n))
        exact = exact_conflict_ratio(g, m)
        mc = estimate_conflict_ratio(g, m, reps=4000, seed=0)
        assert abs(mc.mean - exact) <= max(3 * mc.half_width, 0.02)

    def test_kbar_em_complementary(self, medium_random_graph):
        m = 60
        kbar = estimate_kbar(medium_random_graph, m, reps=300, seed=1)
        em = estimate_em(medium_random_graph, m, reps=300, seed=1)
        assert kbar.mean + em.mean == pytest.approx(m)

    def test_reps_validation(self, small_graph):
        with pytest.raises(ModelError):
            estimate_kbar(small_graph, 2, reps=0)


class TestPaperProperties:
    def test_prop1_ratio_nondecreasing(self, medium_random_graph):
        """Prop. 1: r̄(m) is non-decreasing in m."""
        ms = [2, 5, 10, 20, 40, 80, 150, 300]
        curve = conflict_ratio_curve(medium_random_graph, ms, reps=600, seed=2)
        # allow MC noise of two half-widths per step
        slack = 2 * curve.half_widths.max()
        assert _is_nondecreasing(curve.ratios, atol=slack)

    def test_lemma1_kbar_nondecreasing_convex_exact(self):
        """Lemma 1 on a tiny graph via exact enumeration."""
        g = gnm_random(7, 2.5, seed=3)
        kbars = np.array([exact_kbar(g, m) for m in range(1, 8)])
        assert _is_nondecreasing(kbars, atol=1e-12)
        assert _is_convex(kbars, atol=1e-12)

    def test_kbar_one_is_zero(self, medium_random_graph):
        assert estimate_kbar(medium_random_graph, 1, reps=50, seed=0).mean == 0.0


class TestCurve:
    def test_curve_fields(self, medium_random_graph):
        curve = conflict_ratio_curve(medium_random_graph, [2, 10, 50], reps=100, seed=4)
        assert list(curve.ms) == [2, 10, 50]
        assert curve.replications == 100
        rows = curve.as_rows()
        assert len(rows) == 3 and rows[0][0] == 2

    def test_curve_interpolation(self, medium_random_graph):
        curve = conflict_ratio_curve(medium_random_graph, [2, 100], reps=100, seed=5)
        mid = curve.interpolate(51)
        assert min(curve.ratios) <= mid <= max(curve.ratios)

    def test_curve_rejects_empty_grid(self, medium_random_graph):
        with pytest.raises(ModelError):
            conflict_ratio_curve(medium_random_graph, [], reps=10)

    def test_curve_rejects_out_of_range(self, medium_random_graph):
        with pytest.raises(ModelError):
            conflict_ratio_curve(medium_random_graph, [0, 5], reps=10)
        with pytest.raises(ModelError):
            conflict_ratio_curve(medium_random_graph, [5, 10**6], reps=10)


class TestFirstComeBound:
    def test_probability_closed_form_degenerate(self):
        # isolated node: P = m/n
        assert first_come_probability(10, 0, 4) == pytest.approx(0.4)

    def test_probability_full_degree(self):
        # node adjacent to everything: commits iff drawn first
        assert first_come_probability(10, 9, 10) == pytest.approx(1 / 10)

    def test_probability_validation(self):
        with pytest.raises(ModelError):
            first_come_probability(0, 0, 0)
        with pytest.raises(ModelError):
            first_come_probability(5, 5, 2)
        with pytest.raises(ModelError):
            first_come_probability(5, 2, 6)

    def test_bound_equals_em_on_cliques(self):
        """b_m = EM_m exactly on disjoint unions of cliques (Thm. 2 proof)."""
        g = union_of_cliques(6, 5)  # n=30, d=4
        for m in (1, 7, 15, 30):
            assert first_come_bound(g, m) == pytest.approx(em_kdn(30, 4, m), abs=1e-9)

    def test_bound_below_em_generally(self, medium_random_graph):
        m = 80
        bm = first_come_bound(medium_random_graph, m)
        em = estimate_em(medium_random_graph, m, reps=500, seed=6)
        assert bm <= em.mean + em.half_width

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_bound_monotone_in_m(self, n, data):
        g = gnm_random(n, min(3.0, n - 1), seed=data.draw(st.integers(0, 50)))
        values = [first_come_bound(g, m) for m in range(n + 1)]
        assert _is_nondecreasing(np.array(values), atol=1e-12)
