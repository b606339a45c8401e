"""Tests for repro.control.tuning — controller evaluation machinery."""

import pytest

from repro.control.fixed import FixedController
from repro.control.hybrid import RECURRENCE_A, HybridController
from repro.control.oracle import OracleController
from repro.control.tuning import (
    evaluate_controller,
    oracle_mu,
    summarize_sweep,
    sweep_controllers,
)
from repro.errors import ControllerError
from repro.graph.generators import gnm_random, union_of_cliques


@pytest.fixture(scope="module")
def eval_graph():
    return gnm_random(400, 10, seed=100)


class TestOracleMu:
    def test_mu_sits_on_target(self, eval_graph):
        """r̄(μ) ≈ ρ by construction."""
        from repro.model.conflict_ratio import estimate_conflict_ratio

        mu = oracle_mu(eval_graph, 0.2, reps=150, seed=0)
        r_at_mu = estimate_conflict_ratio(eval_graph, mu, reps=400, seed=1)
        assert r_at_mu.mean == pytest.approx(0.2, abs=0.05)

    def test_mu_monotone_in_rho(self, eval_graph):
        mu_low = oracle_mu(eval_graph, 0.1, reps=150, seed=2)
        mu_high = oracle_mu(eval_graph, 0.4, reps=150, seed=2)
        assert mu_low < mu_high

    def test_disjoint_cliques_mu_scales_with_count(self):
        few = oracle_mu(union_of_cliques(10, 8), 0.2, reps=150, seed=3)
        many = oracle_mu(union_of_cliques(60, 8), 0.2, reps=150, seed=3)
        assert many > few

    def test_tiny_graph_rejected(self):
        from repro.graph.ccgraph import CCGraph

        with pytest.raises(ControllerError):
            oracle_mu(CCGraph(), 0.2)


class TestEvaluateController:
    def test_oracle_settles_immediately(self, eval_graph):
        mu = oracle_mu(eval_graph, 0.2, reps=150, seed=4)
        metrics, result = evaluate_controller(
            OracleController(mu), eval_graph, 0.2, steps=60, mu=mu, seed=5
        )
        assert metrics.settling_step == 0
        assert metrics.settled
        assert len(result) == 60

    def test_hybrid_beats_reca_in_settling(self, eval_graph):
        mu = oracle_mu(eval_graph, 0.2, reps=150, seed=6)
        mh, _ = evaluate_controller(
            HybridController(0.2), eval_graph, 0.2, steps=150, mu=mu, seed=7
        )
        ma, _ = evaluate_controller(
            HybridController(0.2, params=RECURRENCE_A), eval_graph, 0.2, steps=150, mu=mu, seed=7
        )
        assert mh.settling_step < ma.settling_step

    def test_fixed_wrong_m_never_settles(self, eval_graph):
        mu = oracle_mu(eval_graph, 0.2, reps=150, seed=8)
        metrics, _ = evaluate_controller(
            FixedController(2), eval_graph, 0.2, steps=60, mu=mu, seed=9
        )
        assert not metrics.settled

    def test_graph_not_mutated(self, eval_graph):
        edges_before = eval_graph.num_edges
        evaluate_controller(
            HybridController(0.2), eval_graph, 0.2, steps=20, mu=50, seed=10
        )
        assert eval_graph.num_edges == edges_before

    def test_wobble_metric(self, eval_graph):
        metrics, _ = evaluate_controller(
            OracleController(40), eval_graph, 0.2, steps=30, mu=40, seed=11
        )
        assert metrics.wobble == 0.0  # constant allocation


class TestSweep:
    def test_sweep_shape_and_summary(self, eval_graph):
        factories = {
            "hybrid": lambda: HybridController(0.2),
            "fixed": lambda: FixedController(8),
        }
        out = sweep_controllers(
            factories, eval_graph, 0.2, steps=40, replications=2, seed=12
        )
        assert set(out) == {"hybrid", "fixed"}
        assert all(len(v) == 2 for v in out.values())
        rows = summarize_sweep(out)
        assert len(rows) == 2 and rows[0][0] in factories

    def test_zero_replications_rejected(self, eval_graph):
        with pytest.raises(ControllerError):
            sweep_controllers({}, eval_graph, 0.2, replications=0)
