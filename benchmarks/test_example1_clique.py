"""EX1 — paper Example 1: K_{n²} ∪ D_n and available vs exploitable parallelism."""

import pytest

from repro.experiments.runner import run_experiment
from repro.graph.generators import clique_plus_isolated
from repro.model.conflict_ratio import estimate_em


@pytest.fixture(scope="module")
def ex1_result():
    return run_experiment("example1", seed=0)


def test_example1_regeneration(ex1_result, benchmark):
    g = clique_plus_isolated(40 * 40, 40)
    benchmark(estimate_em, g, 41, 200, 3)

    _, _, rows = ex1_result.tables[0]
    for n, max_is, exact, mc, half, bm in rows:
        # the paper's punchline: exactly 2 in expectation, for every n
        assert exact == pytest.approx(2.0, abs=1e-9)
        assert abs(mc - exact) <= 3 * half
        # while the maximal IS keeps growing linearly
        assert max_is == n + 1


def test_example1_gap_grows_with_n(ex1_result):
    """available/exploitable parallelism ratio diverges like (n+1)/2."""
    _, _, rows = ex1_result.tables[0]
    gaps = [max_is / exact for _, max_is, exact, _, _, _ in rows]
    assert gaps == sorted(gaps)
    assert gaps[-1] > 20  # n=40 -> 20.5
