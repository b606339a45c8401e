"""Tests for repro.model.permutation — commit-order semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import complete_graph, empty_graph, gnm_random
from repro.model.permutation import (
    PrefixSampler,
    committed_mask_csr,
    committed_set,
    conflict_count,
    conflict_ratio_realization,
)


class TestCommittedSet:
    def test_independent_nodes_all_commit(self):
        g = empty_graph(4)
        assert committed_set(g, [2, 0, 3]) == [2, 0, 3]

    def test_clique_commits_only_first(self):
        g = complete_graph(5)
        assert committed_set(g, [3, 1, 4]) == [3]

    def test_order_matters(self, small_graph):
        # 0-1-2 triangle: first of them wins
        assert committed_set(small_graph, [0, 1, 2]) == [0]
        assert committed_set(small_graph, [1, 0, 2]) == [1]

    def test_aborted_predecessor_does_not_block(self):
        # path 0-1-2: order [0, 1, 2] -> 1 aborts (conflicts with 0),
        # then 2 commits because 1 never committed.
        g = CCGraph.from_edges(3, [(0, 1), (1, 2)])
        assert committed_set(g, [0, 1, 2]) == [0, 2]

    def test_committed_is_independent_and_maximal(self, medium_random_graph):
        rng = np.random.default_rng(0)
        nodes = medium_random_graph.nodes()
        order = [nodes[i] for i in rng.permutation(len(nodes))[:120]]
        cset = set(committed_set(medium_random_graph, order))
        # independent
        for u in cset:
            assert cset.isdisjoint(medium_random_graph.neighbors(u))
        # maximal within the induced prefix
        for v in order:
            if v not in cset:
                assert not cset.isdisjoint(medium_random_graph.neighbors(v))

    def test_duplicate_node_raises(self, small_graph):
        with pytest.raises(ModelError):
            committed_set(small_graph, [0, 0])

    def test_empty_order(self, small_graph):
        assert committed_set(small_graph, []) == []


class TestConflictCounts:
    def test_conflict_count(self, small_graph):
        assert conflict_count(small_graph, [0, 1, 2]) == 2

    def test_ratio(self, small_graph):
        assert conflict_ratio_realization(small_graph, [0, 1, 2]) == pytest.approx(2 / 3)

    def test_ratio_empty_prefix_is_zero(self, small_graph):
        assert conflict_ratio_realization(small_graph, []) == 0.0


class TestCsrEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.0, 6.0),
        st.data(),
    )
    def test_csr_matches_reference(self, n, d, data):
        d = min(d, n - 1.0)
        g = gnm_random(n, d, seed=data.draw(st.integers(0, 1000)))
        snap = g.snapshot()
        m = data.draw(st.integers(0, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        idx = rng.permutation(n)[:m]
        mask = committed_mask_csr(snap, idx)
        ref = committed_set(g, [int(snap.node_ids[i]) for i in idx])
        got = [int(snap.node_ids[i]) for i, ok in zip(idx, mask) if ok]
        assert got == ref

    def test_empty_prefix(self, medium_random_graph):
        snap = medium_random_graph.snapshot()
        assert committed_mask_csr(snap, np.empty(0, dtype=np.int64)).shape == (0,)

    def test_duplicate_raises(self, medium_random_graph):
        snap = medium_random_graph.snapshot()
        with pytest.raises(ModelError):
            committed_mask_csr(snap, np.array([0, 0]))

    def test_out_of_range_raises(self, medium_random_graph):
        snap = medium_random_graph.snapshot()
        with pytest.raises(ModelError):
            committed_mask_csr(snap, np.array([snap.num_nodes]))

    def test_all_nodes_clique(self):
        snap = complete_graph(10).snapshot()
        mask = committed_mask_csr(snap, np.arange(10))
        assert mask.sum() == 1 and mask[0]


class TestPrefixSampler:
    def test_draw_is_valid_prefix(self, medium_random_graph):
        snap = medium_random_graph.snapshot()
        sampler = PrefixSampler(snap, np.random.default_rng(0))
        pre = sampler.draw(50)
        assert pre.shape == (50,)
        assert len(set(pre.tolist())) == 50

    def test_draw_out_of_range(self, medium_random_graph):
        sampler = PrefixSampler(medium_random_graph.snapshot(), np.random.default_rng(0))
        with pytest.raises(ModelError):
            sampler.draw(10**6)

    def test_committed_counts_reasonable(self):
        snap = complete_graph(20).snapshot()
        sampler = PrefixSampler(snap, np.random.default_rng(1))
        for _ in range(10):
            assert sampler.committed(10).sum() == 1

    def test_prefix_uniformity(self):
        # over many draws each node appears in position 0 equally often
        snap = empty_graph(5).snapshot()
        sampler = PrefixSampler(snap, np.random.default_rng(2))
        counts = np.zeros(5)
        for _ in range(5000):
            counts[sampler.draw(1)[0]] += 1
        assert counts.min() > 800

    def test_blocks_bounded_by_gathered_arcs(self, monkeypatch):
        """Each kernel call stays under the cap, and splitting changes nothing."""
        import repro.model.permutation as permutation
        from repro.graph.generators import clique_plus_isolated

        snap = clique_plus_isolated(100, 10).snapshot()  # max degree 99
        m, reps, max_deg = 11, 50, 99
        whole = PrefixSampler(snap, np.random.default_rng(7)).committed_counts(m, reps)

        calls = []
        kernel = permutation.greedy_commit_mask_batch

        def spy(indptr, indices, prefixes):
            calls.append(prefixes.shape)
            return kernel(indptr, indices, prefixes)

        cap = 4 * m * max_deg
        monkeypatch.setattr(permutation, "greedy_commit_mask_batch", spy)
        monkeypatch.setattr(PrefixSampler, "MAX_BATCH_ELEMENTS", cap)
        split = PrefixSampler(snap, np.random.default_rng(7)).committed_counts(m, reps)

        assert len(calls) > 1
        assert all(rows * cols * max_deg <= cap for rows, cols in calls)
        assert sum(rows for rows, _ in calls) == reps
        np.testing.assert_array_equal(split, whole)
