"""FIG3 — regenerate the controller trajectories of paper Fig. 3.

Timed kernel: one full 120-step hybrid-controller run on the stationary
n = 2000 replay workload.  Shape assertions follow the paper's narrative:
hybrid ≈ 15 steps to converge, Recurrence-A-only much slower, stable tail.
"""

import numpy as np
import pytest

from repro.experiments.fig3 import default_hybrid
from repro.experiments.runner import run_experiment
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ReplayGraphWorkload


@pytest.fixture(scope="module")
def fig3_result():
    return run_experiment("fig3", seed=0)


def _one_hybrid_run():
    graph = gnm_random(2000, 16, seed=41)
    wl = ReplayGraphWorkload(graph)
    return make_engine(wl, default_hybrid(0.2), seed=7).run(max_steps=120)


def test_fig3_regeneration(fig3_result, benchmark):
    benchmark.pedantic(_one_hybrid_run, rounds=3, iterations=1)

    # Paper: hybrid converges close to μ in ~15 steps (we allow 2x)
    assert fig3_result.scalars["settle_hybrid_d16"] <= 30
    assert fig3_result.scalars["settle_hybrid_d48"] <= 30

    # Paper: Recurrence A alone is drastically slower from the cold start
    for d in (16, 48):
        assert (
            fig3_result.scalars[f"settle_recA_d{d}"]
            >= 2.5 * fig3_result.scalars[f"settle_hybrid_d{d}"]
        )


def test_fig3_steady_state_stability(fig3_result):
    """'Quick in convergence AND stable': tail wobble is bounded."""
    for name, _, ys in fig3_result.series:
        if not name.startswith("hybrid"):
            continue
        tail = np.asarray(ys)[60:]
        assert tail.std() / tail.mean() < 0.35, name


def test_fig3_different_density_different_mu(fig3_result):
    """The two graphs must expose genuinely different optima."""
    rows = fig3_result.tables[0][2]
    mus = [row[1] for row in rows]
    assert max(mus) >= 2 * min(mus)
