"""Property tests for the vectorised conflict-resolution kernels.

Three layers of evidence that the fast path implements §2.1's greedy
maximal-independent-set semantics exactly:

* structural invariants on arbitrary (Hypothesis-generated) graphs and
  commit orders — the committed set is independent, and a slot aborts iff
  it has an earlier *committed* neighbour;
* bit-equality with a transparent sequential reference walk;
* agreement with the paper's closed forms on ``K_d^n``: exactly one
  commit per touched clique, and Monte-Carlo means within a CI of
  :func:`repro.model.turan.em_kdn`.

Plus cache-coherence checks for the memoised CSR view that feeds the
kernels.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ccgraph import CCGraph
from repro.graph.generators import gnm_random, union_of_cliques
from repro.model.turan import em_kdn
from repro.runtime import kernels
from repro.runtime.kernels import (
    csr_conflict_pairs,
    csr_greedy_commit_mask,
    greedy_commit_mask_batch,
    greedy_commit_mask_from_slots,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def graph_and_prefix(draw):
    """Random simple graph (as CSR) plus a duplicate-free commit prefix."""
    n = draw(st.integers(min_value=1, max_value=24))
    max_edges = n * (n - 1) // 2
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    raw = draw(st.lists(pairs, max_size=min(3 * n, max_edges)))
    edges = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    m = draw(st.integers(min_value=0, max_value=n))
    perm = draw(st.permutations(range(n)))
    prefix = np.asarray(perm[:m], dtype=np.int64)
    return n, edges, prefix


def csr_from_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, nbrs in enumerate(adj):
        indptr[i + 1] = indptr[i] + len(nbrs)
    indices = np.asarray([v for nbrs in adj for v in sorted(nbrs)], dtype=np.int64)
    return indptr, indices


def reference_commit_mask(edges, prefix: np.ndarray) -> np.ndarray:
    """§2.1 reference: walk the order, commit iff no earlier committed nbr."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    committed: set[int] = set()
    mask = np.zeros(len(prefix), dtype=bool)
    for slot, node in enumerate(prefix):
        node = int(node)
        if not (adj.get(node, set()) & committed):
            committed.add(node)
            mask[slot] = True
    return mask


# ---------------------------------------------------------------------------
# greedy_commit_mask_batch
# ---------------------------------------------------------------------------


def one_row_mask(indptr, indices, prefix):
    """The batch kernel on a one-row batch: ``bool[m]``."""
    return greedy_commit_mask_batch(indptr, indices, np.asarray(prefix)[None, :])[0]


class TestGreedyCommitMask:
    @settings(max_examples=200, deadline=None)
    @given(graph_and_prefix())
    def test_matches_sequential_reference(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        fast = one_row_mask(indptr, indices, prefix)
        assert np.array_equal(fast, reference_commit_mask(edges, prefix))

    @settings(max_examples=150, deadline=None)
    @given(graph_and_prefix())
    def test_committed_set_is_independent(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        mask = one_row_mask(indptr, indices, prefix)
        committed = {int(v) for v in prefix[mask]}
        for u, v in edges:
            assert not (u in committed and v in committed)

    @settings(max_examples=150, deadline=None)
    @given(graph_and_prefix())
    def test_abort_iff_earlier_committed_neighbor(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        mask = one_row_mask(indptr, indices, prefix)
        adj: dict[int, set[int]] = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for slot, node in enumerate(prefix):
            earlier_committed = {int(v) for v in prefix[:slot][mask[:slot]]}
            blocked = bool(adj.get(int(node), set()) & earlier_committed)
            assert mask[slot] == (not blocked)

    @settings(max_examples=75, deadline=None)
    @given(graph_and_prefix(), st.integers(min_value=1, max_value=4))
    def test_batch_equals_per_row(self, case, reps):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        rng = np.random.default_rng(0)
        rows = [prefix] + [
            rng.permutation(n)[: len(prefix)].astype(np.int64)
            for _ in range(reps - 1)
        ]
        batch = greedy_commit_mask_batch(indptr, indices, np.stack(rows))
        for row, row_mask in zip(rows, batch):
            assert np.array_equal(row_mask, one_row_mask(indptr, indices, row))

    def test_rejects_duplicates_and_out_of_range(self):
        indptr, indices = csr_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            one_row_mask(indptr, indices, np.array([0, 0]))
        with pytest.raises(ValueError):
            one_row_mask(indptr, indices, np.array([3]))
        with pytest.raises(ValueError):
            greedy_commit_mask_batch(indptr, indices, np.array([0, 1]))  # 1-D

    def test_empty_prefix(self):
        indptr, indices = csr_from_edges(2, [(0, 1)])
        assert one_row_mask(indptr, indices, np.array([], dtype=np.int64)).shape == (0,)


# ---------------------------------------------------------------------------
# csr_conflict_pairs
# ---------------------------------------------------------------------------


class TestCsrConflictPairs:
    @settings(max_examples=200, deadline=None)
    @given(graph_and_prefix())
    def test_pairs_are_the_edges_inside_the_batch(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        m = len(prefix)
        pos = np.full(n, -1, dtype=np.int64)
        pos[prefix] = np.arange(m, dtype=np.int64)
        own, nbr = csr_conflict_pairs(indptr, indices, prefix, pos)
        slot = {int(node): i for i, node in enumerate(prefix)}
        want = sorted(
            (max(slot[u], slot[v]), min(slot[u], slot[v]))
            for u, v in edges
            if u in slot and v in slot
        )
        assert sorted(zip(own.tolist(), nbr.tolist())) == want
        # and they are what the slot-space kernel needs
        mask = greedy_commit_mask_from_slots(own, nbr, m)
        assert np.array_equal(mask, reference_commit_mask(edges, prefix))


class TestSequentialTail:
    """Both sides of the array-rounds / sequential-walk switch agree."""

    @settings(max_examples=200, deadline=None)
    @given(graph_and_prefix())
    def test_walk_only_and_rounds_only_masks_are_equal(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        m = len(prefix)
        pos = np.full(n, -1, dtype=np.int64)
        pos[prefix] = np.arange(m, dtype=np.int64)
        own, nbr = csr_conflict_pairs(indptr, indices, prefix, pos)
        masks = []
        for tail in (0, sys.maxsize):  # array rounds to the end / walk at once
            with mock.patch.object(kernels, "_SEQUENTIAL_TAIL", tail):
                masks.append(greedy_commit_mask_from_slots(own, nbr, m))
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], reference_commit_mask(edges, prefix))


class TestCsrGreedyCommitMask:
    @settings(max_examples=200, deadline=None)
    @given(graph_and_prefix())
    def test_equals_the_walk_and_leaves_the_scratch_clean(self, case):
        n, edges, prefix = case
        indptr, indices = csr_from_edges(n, edges)
        pos = np.full(n, -1, dtype=np.int64)
        mask = csr_greedy_commit_mask(indptr, indices, prefix, pos)
        assert np.array_equal(mask, reference_commit_mask(edges, prefix))
        assert (pos == -1).all()

    def test_repeated_row_returns_none_with_a_clean_scratch(self):
        indptr, indices = csr_from_edges(4, [(0, 1), (2, 3)])
        pos = np.full(4, -1, dtype=np.int64)
        idx = np.array([2, 0, 2], dtype=np.int64)
        assert csr_greedy_commit_mask(indptr, indices, idx, pos) is None
        assert (pos == -1).all()


# ---------------------------------------------------------------------------
# agreement with the paper's closed forms on K_d^n
# ---------------------------------------------------------------------------


class TestClosedFormAgreement:
    def test_one_commit_per_touched_clique(self):
        # K_5^60: 10 disjoint 6-cliques; any prefix commits exactly its
        # first visitor per touched clique, no matter the order.
        graph = union_of_cliques(10, 6)
        snapshot = graph.csr()
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 61))
            prefix = rng.permutation(60)[:m].astype(np.int64)
            mask = one_row_mask(snapshot.indptr, snapshot.indices, prefix)
            touched = {int(v) // 6 for v in prefix}
            assert int(mask.sum()) == len(touched)
            # ...and the committed one is each clique's earliest visitor
            first = {}
            for node in prefix:
                first.setdefault(int(node) // 6, int(node))
            assert {int(v) for v in prefix[mask]} == set(first.values())

    def test_monte_carlo_matches_em_kdn(self):
        # EM_m(K_d^n) closed form (Thm. 3) vs the batched kernel, n=60 d=5
        n, d = 60, 5
        graph = union_of_cliques(n // (d + 1), d + 1)
        snapshot = graph.csr()
        rng = np.random.default_rng(11)
        reps = 3000
        for m in (5, 20, 45):
            base = np.tile(np.arange(n), (reps, 1))
            prefixes = rng.permuted(base, axis=1)[:, :m]
            counts = greedy_commit_mask_batch(
                snapshot.indptr, snapshot.indices, prefixes
            ).sum(axis=1)
            expected = em_kdn(n, d, m)
            stderr = counts.std(ddof=1) / np.sqrt(reps)
            assert abs(counts.mean() - expected) < max(5 * stderr, 1e-9), (
                f"m={m}: MC mean {counts.mean():.4f} vs closed form {expected:.4f}"
            )


# ---------------------------------------------------------------------------
# CSR view caching on CCGraph
# ---------------------------------------------------------------------------


class TestCSRView:
    def _assert_matches_adjacency(self, graph: CCGraph):
        snapshot = graph.csr()
        assert snapshot.num_nodes == len(graph)
        index = snapshot.index_of
        for u in graph.nodes():
            got = {int(snapshot.node_ids[j]) for j in snapshot.neighbors(index[u])}
            assert got == set(graph.neighbors(u))

    def test_snapshot_matches_adjacency(self):
        self._assert_matches_adjacency(gnm_random(50, 6, seed=3))

    def test_cached_until_mutation(self):
        graph = gnm_random(30, 4, seed=1)
        first = graph.csr()
        assert graph.csr() is first  # memoised while topology is unchanged
        v0 = graph.version
        a, b = graph.nodes()[0], graph.nodes()[1]
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)
        else:
            graph.add_edge(a, b)
        assert graph.version > v0
        second = graph.csr()
        assert second is not first
        self._assert_matches_adjacency(graph)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=25))
    def test_random_mutation_sequences(self, ops):
        graph = gnm_random(12, 3, seed=9)
        rng = np.random.default_rng(42)
        for op in ops:
            nodes = graph.nodes()
            if op == 0:
                graph.add_node()
            elif op == 1 and len(nodes) >= 2:
                u, v = rng.choice(nodes, size=2, replace=False)
                if not graph.has_edge(int(u), int(v)):
                    graph.add_edge(int(u), int(v))
            elif op == 2 and graph.num_edges > 0:
                u, v = graph.edges()[int(rng.integers(graph.num_edges))]
                graph.remove_edge(u, v)
            elif op == 3 and nodes:
                graph.remove_node(int(rng.choice(nodes)))
            self._assert_matches_adjacency(graph)
