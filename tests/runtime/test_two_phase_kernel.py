"""The sharded order's array kernel against its reference walk.

:func:`~repro.runtime.kernels.csr_two_phase_commit_mask` must return the
``(final, local)`` masks of
:func:`~repro.graph.partition.two_phase_commit_mask` bit for bit.  The
kernel is held to that directly on random graphs, dense and morphed;
the named corners then drive ``ShardedCommitOrder.execute`` — the one
caller — to pin which batches reach the kernel (the policy's shared
gate), that every declined batch gets the walk's answer or the walk's
error, and that the scratch array is clean whichever way a call ends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import FixedController
from repro.errors import GraphError
from repro.graph.generators import gnm_random
from repro.graph.partition import partition_graph, two_phase_commit_mask
from repro.runtime import kernels, policies
from repro.runtime.core import Engine
from repro.runtime.kernels import GATHER_MIN_BATCH, csr_two_phase_commit_mask
from repro.runtime.policies import ShardedCommitOrder
from repro.runtime.task import Task
from repro.runtime.workloads import ReplayGraphWorkload
from tests.graph.test_partition import (
    _kernel_masks,
    _morph,
    _random_batch,
    graph_params,
)

SHARDS = [1, 2, 3, 4, 8]


class TestKernelEqualsWalk:
    @settings(max_examples=120, deadline=None)
    @given(
        graph_params, st.sampled_from(SHARDS), st.integers(0, 2**16), st.booleans()
    )
    def test_masks_equal_on_dense_and_morphed_graphs(
        self, params, shards, fuzz_seed, morphed
    ):
        n, d, seed = params
        graph = gnm_random(n, min(d, n - 1), seed=seed)
        part = partition_graph(graph, shards)
        rng = np.random.default_rng(fuzz_seed)
        if morphed:  # ids with holes and fresh ids past the partition table
            _morph(graph, rng, rounds=6)
            if not graph.nodes():
                return
        batch = _random_batch(graph, rng)
        (final, local), pos = _kernel_masks(graph, part, batch)
        ref_final, ref_local = two_phase_commit_mask(graph, part, batch)
        np.testing.assert_array_equal(final, ref_final)
        np.testing.assert_array_equal(local, ref_local)
        assert (pos == -1).all()
        assert not np.any(final & ~local)  # final implies local
        committed = [u for u, ok in zip(batch, final) if ok]
        for i, u in enumerate(committed):
            for v in committed[i + 1 :]:
                assert not graph.has_edge(u, v)

    def test_repeated_row_returns_none_with_a_clean_scratch(self):
        graph = gnm_random(20, 4, seed=1)
        masks, pos = _kernel_masks(graph, partition_graph(graph, 2), [3, 7, 3])
        assert masks is None and (pos == -1).all()

    def test_scratch_is_clean_after_an_exception(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("gather failed")

        monkeypatch.setattr(kernels, "csr_conflict_pairs", boom)
        graph = gnm_random(20, 4, seed=1)
        snap = graph.csr()
        pos = np.full(20, -1, dtype=np.int64)
        idx = np.arange(10, dtype=np.int64)
        with pytest.raises(RuntimeError, match="gather failed"):
            csr_two_phase_commit_mask(
                snap.indptr, snap.indices, idx, pos, np.zeros(10, dtype=np.int64)
            )
        assert (pos == -1).all()


N = 400


@pytest.fixture
def sharded(monkeypatch):
    """A 3-shard order over a static graph, with its two resolvers counted."""
    graph = gnm_random(N, 6, seed=5)
    workload = ReplayGraphWorkload(graph)
    order = ShardedCommitOrder(workload.policy, shards=3)
    Engine(
        workset=workload.workset,
        operator=workload.operator,
        controller=FixedController(8),
        order=order,
        seed=0,
    )
    calls = []
    for name in ("csr_two_phase_commit_mask", "two_phase_commit_mask"):
        real = getattr(policies, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(policies, name, counting)
    return graph, order, calls


def _batch(nodes, m, rng):
    picked = rng.choice(nodes, size=m, replace=False)
    return [Task(payload=int(u)) for u in picked]


def _assert_is_the_walk(graph, order, batch, outcome):
    final, local = two_phase_commit_mask(
        graph, order.partition, [t.payload for t in batch]
    )
    assert [t.uid for t in outcome.committed] == [
        t.uid for t, ok in zip(batch, final) if ok
    ]
    assert [t.uid for t in outcome.aborted] == [
        t.uid for t, ok in zip(batch, final) if not ok
    ]
    assert order.last_shard_stats["halo_aborts"] == int((local & ~final).sum())
    assert (order.conflict_policy._pos == -1).all()


class TestWhichBatchesGather:
    def test_both_sides_of_the_cutover(self, sharded):
        graph, order, calls = sharded
        rng = np.random.default_rng(1)
        order.execute(_batch(graph.nodes(), GATHER_MIN_BATCH, rng))  # version not seen
        del calls[:]
        for m, resolver in [
            (GATHER_MIN_BATCH, "csr_two_phase_commit_mask"),
            (GATHER_MIN_BATCH - 1, "two_phase_commit_mask"),
            (N, "csr_two_phase_commit_mask"),
            (1, "two_phase_commit_mask"),
        ]:
            batch = _batch(graph.nodes(), m, rng)
            outcome = order.execute(batch)
            assert calls == [resolver]
            del calls[:]
            _assert_is_the_walk(graph, order, batch, outcome)

    def test_first_batch_after_a_morph_walks_and_the_next_gathers(self, sharded):
        graph, order, calls = sharded
        rng = np.random.default_rng(2)
        batch = _batch(graph.nodes(), 200, rng)
        order.execute(batch)
        before = order.execute(batch)
        assert calls == ["two_phase_commit_mask", "csr_two_phase_commit_mask"]
        # an edge between the first two commits changes the answer; removing
        # a node leaves the id space with a hole (rows are no longer ids)
        u, v = (t.payload for t in before.committed[:2])
        graph.add_edge(u, v)
        in_batch = {t.payload for t in batch}
        graph.remove_node(next(n for n in graph.nodes() if n not in in_batch))
        del calls[:]
        walked = order.execute(batch)
        gathered = order.execute(batch)
        assert calls == ["two_phase_commit_mask", "csr_two_phase_commit_mask"]
        assert not graph.csr().ids_dense
        for outcome in (walked, gathered):
            _assert_is_the_walk(graph, order, batch, outcome)
        assert [t.uid for t in walked.committed] != [t.uid for t in before.committed]

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda batch: Task(payload=N + 7), "is not a live node"),
            (lambda batch: Task(payload=batch[0].payload), "appears twice"),
            (lambda batch: Task(payload=float(batch[0].payload)), "is not a live node"),
        ],
        ids=["dead-node", "repeated-node", "float-payload"],
    )
    def test_degenerate_batches_get_the_walks_error(self, sharded, spoil, message):
        graph, order, calls = sharded
        rng = np.random.default_rng(3)
        batch = _batch(graph.nodes(), 200, rng)
        order.execute(batch)  # version seen: the next batch is gather-sized
        batch.append(spoil(batch))
        del calls[:]
        with pytest.raises(GraphError, match=message):
            order.execute(batch)
        assert calls[-1] == "two_phase_commit_mask"
        assert (order.conflict_policy._pos == -1).all()
        # and the order is not left unusable
        good = batch[:-1]
        _assert_is_the_walk(graph, order, good, order.execute(good))
        assert calls[-1] == "csr_two_phase_commit_mask"
