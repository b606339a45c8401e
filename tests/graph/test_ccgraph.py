"""Tests for repro.graph.ccgraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph.ccgraph import CCGraph


class TestBasicOperations:
    def test_add_nodes_sequential_ids(self):
        g = CCGraph()
        assert [g.add_node() for _ in range(3)] == [0, 1, 2]
        assert g.num_nodes == 3

    def test_node_ids_never_reused(self):
        g = CCGraph()
        g.add_node()
        g.remove_node(0)
        assert g.add_node() == 1

    def test_add_edge_and_query(self, small_graph):
        assert small_graph.has_edge(0, 1)
        assert small_graph.has_edge(1, 0)
        assert not small_graph.has_edge(0, 4)

    def test_add_edge_idempotent(self):
        g = CCGraph.from_edges(2, [(0, 1)])
        g.add_edge(0, 1)
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = CCGraph.from_edges(1, [])
        with pytest.raises(GraphError):
            g.add_edge(0, 0)

    def test_edge_to_missing_node_raises(self):
        g = CCGraph.from_edges(2, [])
        with pytest.raises(NodeNotFoundError):
            g.add_edge(0, 9)

    def test_remove_edge(self):
        g = CCGraph.from_edges(3, [(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_missing_edge_raises(self):
        g = CCGraph.from_edges(2, [])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_remove_node_cleans_edges(self, small_graph):
        small_graph.remove_node(2)
        assert 2 not in small_graph
        assert small_graph.num_edges == 4  # 0-1, 3-4, 4-5, 3-5
        assert not small_graph.has_edge(0, 2)

    def test_remove_missing_node_raises(self):
        g = CCGraph()
        with pytest.raises(NodeNotFoundError):
            g.remove_node(0)

    def test_degree_and_neighbors(self, small_graph):
        assert small_graph.degree(2) == 3
        assert small_graph.neighbors(2) == frozenset({0, 1, 3})
        with pytest.raises(NodeNotFoundError):
            small_graph.degree(99)

    def test_average_degree(self, small_graph):
        assert small_graph.average_degree == pytest.approx(14 / 6)
        assert CCGraph().average_degree == 0.0

    def test_len_iter_contains(self, small_graph):
        assert len(small_graph) == 6
        assert set(small_graph) == set(range(6))
        assert 3 in small_graph and 17 not in small_graph

    def test_edges_reported_once(self, small_graph):
        edges = small_graph.edges()
        assert len(edges) == 7
        assert all(u < v for u, v in edges)


class TestPayloads:
    def test_data_roundtrip(self):
        g = CCGraph()
        nid = g.add_node(data={"x": 1})
        assert g.get_data(nid) == {"x": 1}
        g.set_data(nid, "other")
        assert g.get_data(nid) == "other"

    def test_data_none_by_default(self):
        g = CCGraph.from_edges(1, [])
        assert g.get_data(0) is None

    def test_data_on_missing_node_raises(self):
        g = CCGraph()
        with pytest.raises(NodeNotFoundError):
            g.get_data(0)
        with pytest.raises(NodeNotFoundError):
            g.set_data(0, 1)

    def test_data_removed_with_node(self):
        g = CCGraph()
        nid = g.add_node(data=42)
        g.remove_node(nid)
        nid2 = g.add_node()
        assert g.get_data(nid2) is None


class TestDerivedStructures:
    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.remove_node(0)
        assert 0 in small_graph
        assert small_graph.num_edges == 7

    def test_copy_preserves_next_id(self, small_graph):
        clone = small_graph.copy()
        assert clone.add_node() == small_graph.add_node()

    def test_induced_subgraph(self, small_graph):
        sub = small_graph.induced_subgraph([0, 1, 2, 3])
        assert sub.num_nodes == 4
        assert sub.num_edges == 4  # 0-1, 0-2, 1-2, 2-3
        assert not sub.has_edge(3, 4) if 4 in sub else True

    def test_induced_subgraph_missing_node_raises(self, small_graph):
        with pytest.raises(NodeNotFoundError):
            small_graph.induced_subgraph([0, 99])

    def test_nodes_order_is_ascending_under_add_and_remove(self, medium_random_graph):
        """The contract ``RegeneratingGraphWorkload`` keeps its id list by:
        removal keeps the order of the rest, ``add_node`` appends the
        largest id so far, ``copy`` keeps the order."""
        g = medium_random_graph
        rng = np.random.default_rng(0)
        for _ in range(200):
            ids = g.nodes()
            gone = int(rng.choice(ids))
            g.remove_node(gone)
            ids.remove(gone)
            assert g.nodes() == ids
            new = g.add_node()
            assert new > max(ids)
            assert g.nodes() == ids + [new] == sorted(g.nodes()) == g.copy().nodes()

    def test_induced_subgraph_keeps_ids_and_the_id_counter(self, medium_random_graph):
        """Only the *set* of ids is promised: they come out in a set's
        order, ascending by accident if at all."""
        keep = set(medium_random_graph.nodes()[::3])
        sub = medium_random_graph.induced_subgraph(keep)
        assert set(sub.nodes()) == keep
        assert sub.add_node() == medium_random_graph.add_node()  # ids still never reused

    def test_snapshot_matches_graph(self, medium_random_graph):
        g = medium_random_graph
        snap = g.snapshot()
        assert snap.num_nodes == g.num_nodes
        assert snap.num_edges == g.num_edges
        assert snap.average_degree == pytest.approx(g.average_degree)
        # spot-check adjacency round trip
        index_of = {int(n): i for i, n in enumerate(snap.node_ids)}
        for u in list(g)[:20]:
            neigh = {int(snap.node_ids[j]) for j in snap.neighbors(index_of[u])}
            assert neigh == set(g.neighbors(u))

    @pytest.mark.parametrize("shape", ["dense", "holed", "unordered"])
    def test_snapshot_equals_per_node_build(self, medium_random_graph, shape):
        g = medium_random_graph
        if shape == "holed":  # removed ids leave holes, new ids go past them
            for u in (0, 5, 17):
                g.remove_node(u)
            g.add_edge(g.add_node(), 3)
        elif shape == "unordered":  # set-ordered ids: not even ascending
            g = g.induced_subgraph(set(g.nodes()[::2]))
        snap = g.snapshot()
        ids = g.nodes()
        index_of = {u: i for i, u in enumerate(ids)}
        assert snap.node_ids.tolist() == ids
        assert snap.indptr.tolist() == np.cumsum([0] + [g.degree(u) for u in ids]).tolist()
        for i, u in enumerate(ids):
            row = snap.neighbors(i).tolist()
            assert len(row) == g.degree(u)
            assert set(row) == {index_of[v] for v in g.neighbors(u)}
        assert snap.ids_dense == (shape == "dense")

    def test_snapshot_degrees(self, small_graph):
        snap = small_graph.snapshot()
        degs = {int(n): int(d) for n, d in zip(snap.node_ids, snap.degrees)}
        assert degs[2] == 3 and degs[0] == 2

    def test_to_networkx(self, small_graph):
        nxg = small_graph.to_networkx()
        assert nxg.number_of_nodes() == 6
        assert nxg.number_of_edges() == 7

    def test_from_networkx_roundtrip(self, small_graph):
        back = CCGraph.from_networkx(small_graph.to_networkx())
        assert back.num_nodes == small_graph.num_nodes
        assert sorted(back.edges()) == sorted(small_graph.edges())

    def test_from_networkx_arbitrary_labels(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("alpha", "beta")
        nxg.add_edge("beta", "gamma")
        nxg.add_edge("alpha", "alpha")  # self-loop must be dropped
        g = CCGraph.from_networkx(nxg)
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_networkx_deterministic(self):
        import networkx as nx

        nxg = nx.gnm_random_graph(20, 40, seed=3)
        a = CCGraph.from_networkx(nxg)
        b = CCGraph.from_networkx(nxg)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_repr(self, small_graph):
        assert "n=6" in repr(small_graph)


@st.composite
def graph_operations(draw):
    """A random sequence of graph mutations."""
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add_node", "add_edge", "remove_node"]),
                      st.integers(0, 30), st.integers(0, 30)),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestInvariantsPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(graph_operations())
    def test_edge_count_always_consistent(self, ops):
        g = CCGraph()
        for op, a, b in ops:
            if op == "add_node":
                g.add_node()
            elif op == "add_edge" and a in g and b in g and a != b:
                g.add_edge(a, b)
            elif op == "remove_node" and a in g:
                g.remove_node(a)
        # invariant: num_edges equals the recount and adjacency is symmetric
        assert g.num_edges == len(g.edges())
        for u in g:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @settings(max_examples=30, deadline=None)
    @given(graph_operations())
    def test_snapshot_roundtrip_any_graph(self, ops):
        g = CCGraph()
        for op, a, b in ops:
            if op == "add_node":
                g.add_node()
            elif op == "add_edge" and a in g and b in g and a != b:
                g.add_edge(a, b)
            elif op == "remove_node" and a in g:
                g.remove_node(a)
        snap = g.snapshot()
        assert snap.num_nodes == g.num_nodes
        assert snap.num_edges == g.num_edges
        assert int(snap.indptr[-1]) == snap.indices.shape[0]
        if snap.num_nodes:
            assert np.array_equal(np.sort(np.diff(snap.indptr)), np.sort(snap.degrees))


# ----------------------------------------------------------------------
# frozen oracle: the per-edge ``from_edges`` the bulk build replaced
# ----------------------------------------------------------------------
def per_edge_from_edges(num_nodes, edges):
    """Frozen copy of the per-edge ``CCGraph.from_edges`` loop."""
    g = CCGraph()
    for _ in range(num_nodes):
        g.add_node()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def graph_shape(g):
    """Everything bulk construction must reproduce, orders included."""
    nodes = g.nodes()
    return (
        nodes,
        [list(g._adj[u]) for u in nodes],  # set iteration order per node
        g.num_edges,
        g.version,
        g._next_id,
        [g.get_data(u) for u in nodes],
    )


def distinct_adjacency_ints(g):
    """Distinct int objects held across all neighbour sets."""
    return len({id(v) for vs in g._adj.values() for v in vs})


class TestBulkFromEdges:
    @pytest.mark.parametrize(
        "n, edges",
        [
            (0, []),
            (1, []),
            (2, [(0, 1)]),
            (2, [(1, 0), (0, 1), (1, 0)]),  # duplicates collapse
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
            (40, [(u, v) for u in range(40) for v in range(u + 1, 40)]),
            (300, [(u * 7 % 300, u * 13 % 300) for u in range(1, 300)]),
        ],
    )
    def test_matches_per_edge_loop(self, n, edges):
        edges = [(u, v) for u, v in edges if u != v]
        assert graph_shape(CCGraph.from_edges(n, edges)) == graph_shape(
            per_edge_from_edges(n, edges)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                    max_size=4 * n,
                ),
            )
        )
    )
    def test_matches_per_edge_loop_any_edge_list(self, case):
        n, edges = case
        edges = [(u + 300, v + 300) for u, v in edges if u != v]  # uncached ints
        n += 300
        assert graph_shape(CCGraph.from_edges(n, edges)) == graph_shape(
            per_edge_from_edges(n, edges)
        )

    def test_accepts_iterators(self):
        pairs = [(0, 1), (1, 2)]
        assert graph_shape(CCGraph.from_edges(3, iter(pairs))) == graph_shape(
            CCGraph.from_edges(3, pairs)
        )

    @pytest.mark.parametrize(
        "n, edges, error",
        [
            (3, [(0, 1), (2, 2)], GraphError),  # self-loop
            (3, [(0, -1)], NodeNotFoundError),  # must not wrap to node 2
            (3, [(-1, 0)], NodeNotFoundError),
            (3, [(0, 3)], NodeNotFoundError),
            (3, [(5, 1)], NodeNotFoundError),
            (0, [(0, 1)], NodeNotFoundError),
            (3, [(7, 7)], GraphError),  # self-loop test comes first
        ],
    )
    def test_error_parity(self, n, edges, error):
        with pytest.raises(error) as bulk:
            CCGraph.from_edges(n, edges)
        with pytest.raises(error) as loop:
            per_edge_from_edges(n, edges)
        assert str(bulk.value) == str(loop.value)

    def test_numpy_endpoints_store_python_ints(self):
        lo = np.array([0, 1, 500, 2], dtype=np.int64)
        hi = np.array([1, 700, 999, 3], dtype=np.int64)
        g = CCGraph.from_edges(1000, zip(lo, hi))
        oracle = per_edge_from_edges(1000, zip(lo.tolist(), hi.tolist()))
        assert graph_shape(g) == graph_shape(oracle)
        assert all(type(v) is int for vs in g._adj.values() for v in vs)

    def test_one_int_object_per_node_id(self):
        n = 3000
        edges = [(u, (u * 37 + 11) % n) for u in range(n) if u != (u * 37 + 11) % n]
        # fresh int objects per endpoint, as a decoder's tolist() hands out
        fresh = [(int(str(u)), int(str(v))) for u, v in edges]
        g = CCGraph.from_edges(n, fresh)
        assert distinct_adjacency_ints(g) <= g.num_nodes
        # the per-edge loop keeps the caller's objects: one per endpoint
        assert distinct_adjacency_ints(per_edge_from_edges(n, fresh)) > g.num_nodes

    def test_from_networkx_matches_per_edge_loop(self):
        import networkx as nx

        nxg = nx.gnm_random_graph(60, 200, seed=5)
        nxg.add_edge(3, 3)  # dropped
        nodes = sorted(nxg.nodes(), key=repr)
        index = {node: i for i, node in enumerate(nodes)}
        oracle = per_edge_from_edges(
            len(nodes), [(index[u], index[v]) for u, v in nxg.edges() if u != v]
        )
        assert graph_shape(CCGraph.from_networkx(nxg)) == graph_shape(oracle)
