"""THEORY — §3 closed forms (Prop. 2, Thm. 2/3, Cor. 2/3) at paper scale."""

import pytest

from repro.experiments.runner import run_experiment
from repro.model.turan import (
    alpha_conflict_bound_limit,
    em_kdn,
    worst_case_conflict_ratio,
)


@pytest.fixture(scope="module")
def theory_result():
    return run_experiment("theory", seed=0)


def test_theory_regeneration(theory_result, benchmark):
    benchmark(em_kdn, 2040, 16, 500)

    assert theory_result.scalars["thm2_violations"] == 0.0
    assert theory_result.scalars["cor3_alpha_half_bound"] == pytest.approx(0.213, abs=5e-4)


def test_prop2_at_scale(theory_result):
    title, headers, rows = theory_result.tables[0]
    for name, n, d, formula, mc, half in rows:
        assert abs(mc - formula) <= 3 * half + 1e-3, name


def test_thm3_closed_form_at_scale(theory_result):
    title, headers, rows = theory_result.tables[1]
    for m, exact, mc, half in rows:
        assert abs(mc - exact) <= 3 * half + 0.01


def test_cor3_bound_chain(theory_result):
    """MC on K_d^n ≤ exact worst case ≤ degree-free limit, per α row."""
    title, headers, rows = theory_result.tables[3]
    for alpha, m, limit_bound, exact_worst, mc, half in rows:
        assert exact_worst <= limit_bound + 1e-9
        assert mc - 3 * half - 0.01 <= exact_worst


def test_worst_case_monotone_in_density():
    """Denser worst-case families leave less exploitable parallelism."""
    m = 200
    bounds = [worst_case_conflict_ratio(2040, d, m) for d in (1, 4, 16)]
    assert bounds == sorted(bounds)


def test_cor3_limit_shape():
    assert alpha_conflict_bound_limit(0.01) < 0.01
    assert alpha_conflict_bound_limit(4.0) > 0.7
