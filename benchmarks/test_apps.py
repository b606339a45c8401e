"""APPS — the controller on the real irregular applications (§2, §5)."""

import pytest

from repro.apps.boruvka import BoruvkaMST, kruskal_weight, random_weighted_graph
from repro.control.hybrid import HybridController
from repro.experiments.runner import run_experiment
from repro.runtime.engine import make_engine


APPS = ("delaunay", "boruvka", "coloring", "sp", "maxflow", "components")


@pytest.fixture(scope="module")
def apps_result():
    return run_experiment("apps", seed=0)


def _boruvka_run():
    g = random_weighted_graph(400, 8, seed=11)
    app = BoruvkaMST(g)
    make_engine(app, HybridController(0.25), seed=12).run(max_steps=6000)
    return app


def test_apps_regeneration(apps_result, benchmark):
    app = benchmark.pedantic(_boruvka_run, rounds=3, iterations=1)
    assert app.total_weight == pytest.approx(kruskal_weight(app.graph), abs=1e-9)


@pytest.mark.parametrize("app", APPS)
def test_hybrid_on_tradeoff_frontier(apps_result, app):
    """Per application: hybrid is no slower than the tiny fixed allocation
    and wastes no more than the huge one."""
    s = apps_result.scalars
    assert s[f"{app}_hybrid_steps"] <= s[f"{app}_fixed-2_steps"]
    assert s[f"{app}_hybrid_waste"] <= s[f"{app}_fixed-128_waste"] + 0.02


@pytest.mark.parametrize("app", APPS)
def test_big_fixed_allocation_wastes_more(apps_result, app):
    """The paper's motivation: over-allocation inflates speculative waste."""
    s = apps_result.scalars
    assert s[f"{app}_fixed-128_waste"] >= s[f"{app}_fixed-2_waste"]
