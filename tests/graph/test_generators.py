"""Tests for repro.graph.generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeneratorError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import (
    clique_plus_isolated,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnm_random,
    gnp_random,
    grid_graph,
    kdn_worst_case,
    path_graph,
    powerlaw_graph,
    random_geometric,
    random_regular,
    union_of_cliques,
)
from repro.utils.rng import ensure_rng
from tests.graph.test_ccgraph import distinct_adjacency_ints, graph_shape, per_edge_from_edges


class TestDeterministicFamilies:
    def test_empty(self):
        g = empty_graph(5)
        assert g.num_nodes == 5 and g.num_edges == 0

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert all(g.degree(u) == 5 for u in g)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1 and g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert all(g.degree(u) == 2 for u in g)

    def test_cycle_small_degenerates_to_path(self):
        assert cycle_graph(2).num_edges == 1
        assert cycle_graph(1).num_edges == 0

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.degree(0) == 2  # corner

    def test_zero_sizes(self):
        assert empty_graph(0).num_nodes == 0
        assert grid_graph(0, 5).num_nodes == 0
        assert path_graph(0).num_nodes == 0

    def test_negative_raises(self):
        for fn in (empty_graph, complete_graph, path_graph, cycle_graph):
            with pytest.raises(GeneratorError):
                fn(-1)


class TestCliqueFamilies:
    def test_union_of_cliques_structure(self):
        g = union_of_cliques(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 6
        assert all(g.degree(u) == 3 for u in g)
        # no edges between cliques
        assert not g.has_edge(0, 4)

    def test_kdn_worst_case(self):
        g = kdn_worst_case(170, 16)
        assert g.num_nodes == 170
        assert g.average_degree == pytest.approx(16.0)

    def test_kdn_divisibility_enforced(self):
        with pytest.raises(GeneratorError):
            kdn_worst_case(100, 16)

    def test_kdn_degree_too_big(self):
        with pytest.raises(GeneratorError):
            kdn_worst_case(4, 5)

    def test_clique_plus_isolated(self):
        g = clique_plus_isolated(9, 3)  # Example 1 with n=3
        assert g.num_nodes == 12
        assert g.num_edges == 36
        assert g.degree(9) == 0 and g.degree(0) == 8

    def test_clique_plus_isolated_negative(self):
        with pytest.raises(GeneratorError):
            clique_plus_isolated(-1, 0)


class TestRandomFamilies:
    def test_gnm_edge_count_and_degree(self):
        g = gnm_random(500, 10, seed=0)
        assert g.num_nodes == 500
        assert g.num_edges == 2500
        assert g.average_degree == pytest.approx(10.0)

    def test_gnm_deterministic_by_seed(self):
        a = gnm_random(100, 6, seed=42)
        b = gnm_random(100, 6, seed=42)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_gnm_edges_distinct_and_valid(self):
        g = gnm_random(60, 8, seed=1)
        edges = g.edges()
        assert len(edges) == len(set(edges))
        assert all(0 <= u < 60 and 0 <= v < 60 and u != v for u, v in edges)

    def test_gnm_full_density(self):
        g = gnm_random(10, 9, seed=2)  # all 45 edges
        assert g.num_edges == 45

    def test_gnm_too_many_edges_raises(self):
        with pytest.raises(GeneratorError):
            gnm_random(10, 20, seed=0)

    def test_gnp_extremes(self):
        assert gnp_random(20, 0.0, seed=0).num_edges == 0
        assert gnp_random(8, 1.0, seed=0).num_edges == 28

    def test_gnp_density_near_expectation(self):
        g = gnp_random(400, 0.05, seed=3)
        expected = 0.05 * 400 * 399 / 2
        assert abs(g.num_edges - expected) < 4 * np.sqrt(expected)

    def test_gnp_bad_probability(self):
        with pytest.raises(GeneratorError):
            gnp_random(10, 1.5)

    def test_random_regular_small_degree(self):
        g = random_regular(50, 3, seed=4)
        assert all(g.degree(u) == 3 for u in g)

    def test_random_regular_large_degree_via_networkx(self):
        g = random_regular(120, 16, seed=5)
        assert all(g.degree(u) == 16 for u in g)

    def test_random_regular_parity_check(self):
        with pytest.raises(GeneratorError):
            random_regular(5, 3)

    def test_random_regular_degree_too_big(self):
        with pytest.raises(GeneratorError):
            random_regular(4, 4)

    def test_random_regular_zero_degree(self):
        assert random_regular(5, 0).num_edges == 0

    def test_random_geometric_edges_within_radius(self):
        g = random_geometric(200, 0.08, seed=6)
        for u, v in g.edges():
            pu, pv = g.get_data(u), g.get_data(v)
            dist = ((pu[0] - pv[0]) ** 2 + (pu[1] - pv[1]) ** 2) ** 0.5
            assert dist <= 0.08 + 1e-12

    def test_random_geometric_completeness(self):
        # every within-radius pair must be an edge
        g = random_geometric(80, 0.15, seed=7)
        pts = [g.get_data(u) for u in range(80)]
        for u in range(80):
            for v in range(u + 1, 80):
                d = ((pts[u][0] - pts[v][0]) ** 2 + (pts[u][1] - pts[v][1]) ** 2) ** 0.5
                assert g.has_edge(u, v) == (d <= 0.15)

    def test_powerlaw_basic(self):
        g = powerlaw_graph(200, 3, seed=8)
        assert g.num_nodes == 200
        # every late node attaches to exactly 3 targets
        assert g.num_edges == 6 + (200 - 4) * 3
        degs = sorted(g.degree(u) for u in g)
        assert degs[-1] > degs[len(degs) // 2]  # skewed

    def test_powerlaw_tiny_n(self):
        g = powerlaw_graph(3, 4, seed=9)
        assert g.num_edges == 3  # complete

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 80), st.integers(0, 8))
    def test_gnm_average_degree_property(self, n, d):
        d = min(d, n - 1)
        g = gnm_random(n, d, seed=0)
        assert g.num_edges == int(round(n * d / 2))


@pytest.mark.parametrize(
    "graph",
    [
        empty_graph(7),
        complete_graph(6),
        path_graph(9),
        cycle_graph(9),
        grid_graph(3, 4),
        union_of_cliques(3, 4),
        kdn_worst_case(12, 3),
        clique_plus_isolated(4, 5),
        gnm_random(30, 4, seed=1),
        gnp_random(30, 0.2, seed=2),
        random_regular(20, 3, seed=3),
        random_geometric(30, 0.3, seed=4),
        powerlaw_graph(30, 2, seed=5),
    ],
    ids=[
        "empty", "complete", "path", "cycle", "grid", "cliques", "kdn",
        "clique_plus_isolated", "gnm", "gnp", "regular", "geometric", "powerlaw",
    ],
)
def test_every_generator_lists_nodes_in_ascending_id_order(graph):
    """``CCGraph.nodes()`` contract: insertion order == ascending ids."""
    assert graph.nodes() == list(range(graph.num_nodes))


# ----------------------------------------------------------------------
# frozen oracle: every generator equals its per-edge build, orders included
# ----------------------------------------------------------------------
def per_edge_gnm_random(n, avg_degree, seed=None):
    """Frozen copy of the per-edge ``gnm_random`` (scalar triangular decode)."""
    rng = ensure_rng(seed)
    m = int(round(n * avg_degree / 2.0))
    max_edges = n * (n - 1) // 2
    g = per_edge_from_edges(n, [])
    if m == 0:
        return g
    chosen = set()
    while len(chosen) < m:
        need = m - len(chosen)
        codes = rng.integers(0, max_edges, size=max(64, 2 * need))
        for code in codes:
            chosen.add(int(code))
            if len(chosen) == m:
                break
    for code in chosen:
        u = int(math.floor((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * code)) / 2.0))
        base = u * (2 * n - u - 1) // 2
        while base > code:
            u -= 1
            base = u * (2 * n - u - 1) // 2
        while u + 1 < n and (u + 1) * (2 * n - (u + 1) - 1) // 2 <= code:
            u += 1
            base = u * (2 * n - u - 1) // 2
        g.add_edge(u, u + 1 + (code - base))
    return g


SEEDS = (0, 1, 2)
SEEDLESS_CASES = [
    (empty_graph, (0,)), (empty_graph, (7,)), (complete_graph, (1,)),
    (complete_graph, (12,)), (path_graph, (2,)), (path_graph, (9,)),
    (cycle_graph, (9,)), (grid_graph, (3, 4)), (union_of_cliques, (3, 4)),
    (kdn_worst_case, (12, 3)), (clique_plus_isolated, (4, 5)),
]
SEEDED_CASES = [
    (gnm_random, (0, 0)), (gnm_random, (1, 0)), (gnm_random, (2, 1)),
    (gnm_random, (400, 0)), (gnm_random, (2000, 8)), (gnm_random, (60, 40)),
    (gnm_random, (30, 29)),
    (gnp_random, (0, 0.5)), (gnp_random, (1, 0.5)), (gnp_random, (2, 1.0)),
    (gnp_random, (50, 0.0)), (gnp_random, (600, 0.02)), (gnp_random, (40, 0.9)),
    (gnp_random, (20, 1.0)),
    (random_regular, (0, 0)), (random_regular, (2, 1)), (random_regular, (20, 0)),
    (random_regular, (400, 4)), (random_regular, (30, 10)),
    (random_geometric, (0, 0.1)), (random_geometric, (1, 0.1)),
    (random_geometric, (2, 2.0)), (random_geometric, (300, 0.08)),
    (random_geometric, (40, 1.5)),
    (powerlaw_graph, (0, 1)), (powerlaw_graph, (2, 1)), (powerlaw_graph, (300, 3)),
    (powerlaw_graph, (30, 10)),
]
ORACLE_CASES = [(gen, args, None) for gen, args in SEEDLESS_CASES] + [
    (gen, args, seed) for gen, args in SEEDED_CASES for seed in SEEDS
]


def _case_id(case):
    gen, args, seed = case
    return f"{gen.__name__}{args}" + ("" if seed is None else f"-s{seed}")


@pytest.fixture
def per_edge_build(monkeypatch):
    """Build *gen* the way it was built before the bulk ``from_edges``."""

    def build(gen, args, seed):
        if gen is gnm_random:
            return per_edge_gnm_random(*args, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(
                CCGraph, "from_edges", classmethod(lambda cls, n, e: per_edge_from_edges(n, e))
            )
            return gen(*args) if seed is None else gen(*args, seed=seed)

    return build


@pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
def test_generator_matches_per_edge_oracle(case, per_edge_build):
    """Nodes, per-node set iteration order, edge count, version and data."""
    gen, args, seed = case
    built = gen(*args) if seed is None else gen(*args, seed=seed)
    assert graph_shape(built) == graph_shape(per_edge_build(gen, args, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_gnm_random_keeps_one_int_object_per_node_id(seed, per_edge_build):
    g = gnm_random(4000, 8, seed=seed)
    assert distinct_adjacency_ints(g) <= g.num_nodes
    # the per-edge build held one int per decoded endpoint
    assert distinct_adjacency_ints(per_edge_build(gnm_random, (4000, 8), seed)) > g.num_nodes


@pytest.mark.parametrize(
    "gen, args",
    [(gnp_random, (3000, 0.003)), (random_regular, (3000, 4)),
     (random_regular, (1000, 8)), (random_geometric, (3000, 0.03))],
    ids=["gnp", "regular", "regular-nx", "geometric"],
)
def test_bulk_generators_keep_one_int_object_per_node_id(gen, args):
    g = gen(*args, seed=0)
    assert distinct_adjacency_ints(g) <= g.num_nodes
