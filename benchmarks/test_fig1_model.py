"""FIG1 — the model cartoon, executed and verified on many random panels."""

import pytest

from repro.experiments import fig1
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def fig1_result():
    return run_experiment("fig1", seed=0)


def test_fig1_regeneration(fig1_result, benchmark):
    benchmark(fig1.panel, 16, 2.5, 8, 7)
    assert fig1_result.scalars["all_panels_valid"] == 1.0


def test_fig1_caption_holds_at_scale():
    """The caption's invariant on 200 independent random panels."""
    for seed in range(200):
        p = fig1.panel(20, 3.0, 10, seed=seed)
        assert p["independent"], seed
        assert p["maximal"], seed
