"""Tests for repro.apps.coloring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.coloring import GreedyColoring
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gnm_random,
    grid_graph,
)
from repro.runtime.engine import make_engine


class TestColoringCorrectness:
    def test_proper_on_random_graph(self):
        g = gnm_random(300, 8, seed=0)
        app = GreedyColoring(g)
        make_engine(app, HybridController(0.25), seed=1).run(max_steps=5000)
        assert app.is_proper()
        assert app.check_brooks_bound()

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(8)
        app = GreedyColoring(g)
        make_engine(app, FixedController(8), seed=2).run(max_steps=100)
        assert app.is_proper()
        assert app.num_colors() == 8

    def test_empty_graph_one_color(self):
        g = empty_graph(20)
        app = GreedyColoring(g)
        make_engine(app, FixedController(20), seed=3).run()
        assert app.num_colors() == 1

    def test_grid_two_colorable_at_most_three_used(self):
        # greedy on bipartite graphs can exceed 2 but never Δ+1=5; typical ≤ 3
        g = grid_graph(8, 8)
        app = GreedyColoring(g)
        make_engine(app, FixedController(10), seed=4).run(max_steps=500)
        assert app.is_proper()
        assert app.num_colors() <= 4

    def test_every_node_colored_exactly_once(self):
        g = cycle_graph(31)
        app = GreedyColoring(g)
        res = make_engine(app, FixedController(7), seed=5).run(max_steps=500)
        assert set(app.colors) == set(range(31))
        assert res.total_committed == 31 + app.recolor_attempts

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 60), st.floats(0, 6), st.integers(0, 100), st.integers(1, 40))
    def test_always_proper_property(self, n, d, seed, m):
        g = gnm_random(n, min(d, n - 1), seed=seed)
        app = GreedyColoring(g)
        make_engine(app, FixedController(m), seed=seed).run(max_steps=5000)
        assert app.is_proper()

    def test_empty_colors_before_run(self):
        app = GreedyColoring(empty_graph(3))
        assert app.num_colors() == 0
        assert not app.is_proper()  # nothing coloured yet
