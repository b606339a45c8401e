"""Property tests for the edge-cut partitioner and two-phase commit rule.

Hypothesis drives random graphs, shard counts, morph sequences and batch
orders through three invariant families:

* **totality** — every live node belongs to exactly one shard, before
  and after arbitrary morph sequences (the assignment is a total
  function over node ids, not a snapshot);
* **halo vocabulary** — ``boundary``/``halo``/``edge_split`` agree with
  their independently computed set definitions;
* **two-phase resolution** — the array kernel
  :func:`~repro.runtime.kernels.csr_two_phase_commit_mask` equals the
  reference :func:`two_phase_commit_mask` on morphed graphs (more of
  that in ``tests/runtime/test_two_phase_kernel.py``), the composition never
  commits two adjacent batch nodes, and ``shards=1`` collapses to the
  conflict policy's plain greedy walk.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.generators import gnm_random
from repro.graph.morph import attach_clique, replace_cavity
from repro.graph.partition import (
    GraphPartition,
    partition_graph,
    two_phase_commit_mask,
)
from repro.runtime.conflict import ExplicitGraphPolicy
from repro.runtime.kernels import csr_two_phase_commit_mask
from repro.runtime.task import CallbackOperator, Task

OPERATOR = CallbackOperator(
    neighborhood=lambda task: {task.payload}, apply=lambda task: []
)


def _morph(graph, rng, rounds: int) -> None:
    """A random but reproducible add/remove/cavity/clique sequence."""
    for _ in range(rounds):
        move = rng.integers(0, 4)
        nodes = graph.nodes()
        if move == 0 or not nodes:
            nid = graph.add_node()
            if nodes:
                graph.add_edge(nid, int(rng.choice(nodes)))
        elif move == 1:
            graph.remove_node(int(rng.choice(nodes)))
        elif move == 2:
            anchors = rng.choice(nodes, size=min(2, len(nodes)), replace=False)
            attach_clique(graph, int(rng.integers(2, 5)), [int(a) for a in anchors])
        else:
            cavity = rng.choice(nodes, size=min(3, len(nodes)), replace=False)
            replace_cavity(graph, [int(c) for c in cavity], int(rng.integers(1, 4)))


graph_params = st.tuples(
    st.integers(2, 60),  # nodes
    st.integers(0, 6),  # average degree
    st.integers(0, 2**16),  # generator seed
)
shard_counts = st.integers(1, 6)


class TestAssignment:
    @settings(max_examples=60, deadline=None)
    @given(graph_params, shard_counts)
    def test_every_node_in_exactly_one_shard(self, params, shards):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        owned = [part.members(graph, s) for s in range(shards)]
        flat = [n for block in owned for n in block]
        assert sorted(flat) == sorted(graph.nodes())
        assert len(flat) == len(set(flat))

    @settings(max_examples=30, deadline=None)
    @given(graph_params, shard_counts, st.integers(0, 10_000))
    def test_assignment_is_total_over_all_ids(self, params, shards, nid):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        assert 0 <= part.shard_of(nid) < shards
        arr = part.shard_of_array(np.array([nid], dtype=np.int64))
        assert arr[0] == part.shard_of(nid)

    def test_blocks_are_balanced(self):
        graph = gnm_random(100, 6, seed=1)
        part = partition_graph(graph, 4)
        sizes = [len(part.members(graph, s)) for s in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_shard_counts_rejected(self):
        graph = gnm_random(10, 2, seed=0)
        with pytest.raises(GraphError):
            partition_graph(graph, 0)
        with pytest.raises(GraphError):
            GraphPartition(0, np.zeros(1, dtype=np.int64))
        part = partition_graph(graph, 2)
        with pytest.raises(GraphError):
            part.members(graph, 2)


class TestHaloVocabulary:
    @settings(max_examples=40, deadline=None)
    @given(graph_params, shard_counts)
    def test_halo_is_the_boundary_neighbourhood(self, params, shards):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        for s in range(shards):
            members = set(part.members(graph, s))
            boundary = part.boundary(graph, s)
            halo = part.halo(graph, s)
            # boundary: own nodes with a foreign neighbour, from scratch
            assert boundary == {
                u
                for u in members
                if any(v not in members for v in graph.neighbors(u))
            }
            # halo: exactly the foreign neighbours of the boundary
            assert halo == {
                v for u in boundary for v in graph.neighbors(u) if v not in members
            }
            assert not (halo & members)

    @settings(max_examples=40, deadline=None)
    @given(graph_params, shard_counts)
    def test_edge_split_partitions_the_edge_set(self, params, shards):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        intra, cut = part.edge_split(graph)
        count = len(cut)
        for s, pairs in intra.items():
            count += len(pairs)
            for u, v in pairs:
                assert part.shard_of(int(u)) == s == part.shard_of(int(v))
        for u, v in cut:
            assert part.shard_of(int(u)) != part.shard_of(int(v))
        assert count == graph.num_edges


class TestMorphStability:
    @settings(max_examples=30, deadline=None)
    @given(graph_params, shard_counts, st.integers(0, 2**16))
    def test_partition_survives_morph_sequences(self, params, shards, morph_seed):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        _morph(graph, np.random.default_rng(morph_seed), rounds=8)
        # still a total assignment over the mutated node set …
        owned = [part.members(graph, s) for s in range(shards)]
        flat = [u for block in owned for u in block]
        assert sorted(flat) == sorted(graph.nodes())
        # … and the edge views still partition the mutated edge set
        intra, cut = part.edge_split(graph)
        assert sum(len(p) for p in intra.values()) + len(cut) == graph.num_edges


def _kernel_masks(graph, part, batch):
    """The array kernel's answer for *batch* (node ids), plus its scratch."""
    snap = graph.csr()
    index = snap.index_of  # after a morph ids have holes: rows are not ids
    idx = np.asarray([index[u] for u in batch], dtype=np.int64)
    pos = np.full(snap.num_nodes, -1, dtype=np.int64)
    shard_by_pos = part.shard_of_array(np.asarray(batch, dtype=np.int64))
    masks = csr_two_phase_commit_mask(snap.indptr, snap.indices, idx, pos, shard_by_pos)
    return masks, pos


def _random_batch(graph, rng):
    nodes = graph.nodes()
    m = int(rng.integers(1, max(2, len(nodes) + 1)))
    picked = rng.choice(nodes, size=min(m, len(nodes)), replace=False)
    return [int(u) for u in picked]


class TestTwoPhaseResolution:
    @settings(max_examples=40, deadline=None)
    @given(graph_params, shard_counts, st.integers(0, 2**16))
    def test_fast_equals_reference_after_morphs(self, params, shards, fuzz_seed):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        rng = np.random.default_rng(fuzz_seed)
        _morph(graph, rng, rounds=6)
        if not graph.nodes():
            return
        batch = _random_batch(graph, rng)
        final, local = two_phase_commit_mask(graph, part, batch)
        fast, pos = _kernel_masks(graph, part, batch)
        assert fast is not None and (pos == -1).all()
        np.testing.assert_array_equal(fast[0], final)
        np.testing.assert_array_equal(fast[1], local)

    @settings(max_examples=40, deadline=None)
    @given(graph_params, shard_counts, st.integers(0, 2**16))
    def test_no_two_adjacent_commits(self, params, shards, fuzz_seed):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        rng = np.random.default_rng(fuzz_seed)
        batch = _random_batch(graph, rng)
        final, local = two_phase_commit_mask(graph, part, batch)
        committed = [u for u, ok in zip(batch, final) if ok]
        for i, u in enumerate(committed):
            for v in committed[i + 1 :]:
                assert not graph.has_edge(u, v)
        assert not np.any(final & ~local)  # final implies local

    @settings(max_examples=40, deadline=None)
    @given(graph_params, st.integers(0, 2**16))
    def test_one_shard_equals_reference_resolver(self, params, fuzz_seed):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, 1)
        rng = np.random.default_rng(fuzz_seed)
        batch = _random_batch(graph, rng)
        final, local = two_phase_commit_mask(graph, part, batch)
        np.testing.assert_array_equal(final, local)  # no cut edges at all
        outcome = ExplicitGraphPolicy(graph).resolve(
            [Task(payload=u) for u in batch], OPERATOR
        )
        committed = {t.payload for t in outcome.committed}
        np.testing.assert_array_equal(
            final, np.array([u in committed for u in batch], dtype=bool)
        )

    def test_dead_and_duplicate_nodes_rejected(self):
        graph = gnm_random(10, 2, seed=3)
        part = partition_graph(graph, 2)
        nodes = graph.nodes()
        with pytest.raises(GraphError):
            two_phase_commit_mask(graph, part, [nodes[0], nodes[0]])
        dead = max(nodes) + 1
        with pytest.raises(GraphError):
            two_phase_commit_mask(graph, part, [dead])
