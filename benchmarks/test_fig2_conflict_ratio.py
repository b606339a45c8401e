"""FIG2 — regenerate the conflict-ratio curves of paper Fig. 2.

Timed kernel: one Monte-Carlo conflict-ratio estimate at the paper's size
(n = 2000, d = 16).  The full figure is computed once through
``run_experiment("fig2")`` and its shape is asserted.
"""

import numpy as np
import pytest

from repro.experiments.runner import run_experiment
from repro.graph.generators import gnm_random
from repro.model.conflict_ratio import estimate_conflict_ratio
from repro.model.turan import initial_derivative


@pytest.fixture(scope="module")
def fig2_result():
    return run_experiment("fig2", seed=0)


def test_fig2_regeneration(fig2_result, benchmark):
    graph = gnm_random(2000, 16, seed=99)
    benchmark(estimate_conflict_ratio, graph, 500, 20, 7)

    series = {name: np.asarray(ys) for name, _, ys in fig2_result.series}
    ms = np.asarray(fig2_result.series[0][1])

    # Paper shape 1: the Cor. 2 worst-case bound dominates the random graph
    assert fig2_result.scalars["bound_dominates_random_fraction"] == 1.0

    # Paper shape 2 (Prop. 2): common initial derivative d/2(n−1); at m = 2
    # the curve value IS the derivative (r̄(1) = 0), so compare within the
    # Monte-Carlo confidence interval of the m = 2 grid point
    slope = initial_derivative(2000, 16)
    rows = fig2_result.tables[0][2]
    m2_row = next(row for row in rows if row[0] == 2)
    for value, half in ((m2_row[2], m2_row[3]), (m2_row[4], m2_row[5])):
        assert abs(value - slope) <= 3 * half + 5e-3

    # Paper shape 3: curves that climb high (> 1/2 at m = n) are ~linear in
    # the operating region r̄ ≤ 30% — check linearity of the random curve
    rand = series["random graph"]
    operating = rand <= 0.3
    fitted = np.polyfit(ms[operating], rand[operating], 1)
    residual = rand[operating] - np.polyval(fitted, ms[operating])
    assert rand[-1] > 0.5
    assert np.abs(residual).max() < 0.03

    # while the saturating cliques+isolated curve "does not raise too much"
    assert series["cliques+isolated"][-1] < rand[-1]


def test_fig2_all_curves_monotone(fig2_result):
    """Prop. 1 at figure scale: every curve non-decreasing up to noise."""
    for name, _, ys in fig2_result.series:
        assert np.all(np.diff(np.asarray(ys)) > -0.03), name
