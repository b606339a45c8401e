"""The shard pool's round protocol, held to the reference two-phase rule.

:class:`repro.runtime.sharded.ShardPool` ships each shard's intra edges
to its worker once, as a CSR over node-id space, and from then on every
round is array work: one ``{"step", "seq", "sub"}`` message per
non-empty shard whose ``sub`` is an int64 ndarray, one bool mask back,
and the halo exchange as the same kernel over the cut CSR.  This suite
drives the pool directly — no engine — against
:func:`repro.graph.partition.two_phase_commit_mask` on the *live* graph,
so the pool's never-updated CSRs are checked against removals too.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeEngineError
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import gnm_random
from repro.graph.partition import partition_graph, two_phase_commit_mask
from repro.runtime import sharded
from repro.runtime.kernels import GATHER_MIN_BATCH
from repro.runtime.sharded import ShardPool
from repro.runtime.supervise import PersistentWorker, mp_context


def _random_graph(rng, n: int, degree: float) -> CCGraph:
    pairs = rng.integers(0, n, size=(int(n * degree / 2), 2))
    return CCGraph.from_edges(n, [(int(u), int(v)) for u, v in pairs if u != v])


@contextmanager
def _pool_over(graph, shards: int, **kwargs):
    """A pool and the partition it serves; workers are gone on exit."""
    pool = ShardPool(shards, **kwargs)
    try:
        yield pool, partition_graph(graph, shards)
    finally:
        pool.close()


def _round(pool, step, graph, part, nodes):
    """One pool round plus its oracle: ((final, local), (final, local))."""
    nodes = np.asarray(nodes, dtype=np.int64)
    got = pool.resolve(step, nodes, part.shard_of_array(nodes), part, graph)
    return got, two_phase_commit_mask(graph, part, nodes.tolist())


def _assert_round(pool, step, graph, part, nodes):
    (final, local), (ref_final, ref_local) = _round(pool, step, graph, part, nodes)
    assert final.dtype == local.dtype == np.bool_
    np.testing.assert_array_equal(local, ref_local)
    np.testing.assert_array_equal(final, ref_final)
    return final


class _PostSpy:
    """Records every message posted to a worker, per round."""

    def __init__(self):
        self.messages: "list[dict]" = []
        real = PersistentWorker.post

        def post(worker, message):
            if message is not None:  # the close sentinel is not a round
                self.messages.append(message)
            return real(worker, message)

        self._patch = mock.patch.object(PersistentWorker, "post", post)

    def __enter__(self):
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


class TestPoolMatchesTwoPhaseOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 220),
        degree=st.floats(0.0, 12.0),
        shards=st.sampled_from([2, 3, 4, 8]),
        rounds=st.integers(1, 4),
    )
    def test_masks_and_messages_over_consuming_rounds(
        self, seed, n, degree, shards, rounds
    ):
        """(final, local) equal the oracle's, round after round, while the
        committed nodes are removed from the graph under the pool — and each
        round posts one ndarray message per non-empty shard, no more."""
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, n, degree)
        with _pool_over(graph, shards) as (pool, part):
            with _PostSpy() as spy:
                for step in range(rounds):
                    live = np.asarray(graph.nodes(), dtype=np.int64)
                    if live.size == 0:
                        break
                    nodes = rng.permutation(live)[: rng.integers(1, live.size + 1)]
                    del spy.messages[:]
                    final = _assert_round(pool, step, graph, part, nodes)
                    slices = np.bincount(part.shard_of_array(nodes), minlength=shards)
                    assert len(spy.messages) == np.count_nonzero(slices)
                    sizes = []
                    for message in spy.messages:
                        assert set(message) == {"step", "seq", "sub"}
                        assert isinstance(message["sub"], np.ndarray)
                        assert message["sub"].dtype == np.int64
                        sizes.append(message["sub"].size)
                    assert sizes == [int(c) for c in slices if c]
                    for node in nodes[final].tolist():  # a consuming commit
                        graph.remove_node(node)
            assert pool.respawns == 0

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_named_corner_batches(self, shards):
        """Empty shard slices, one-task slices, a one-task batch, both sides
        of the in-process cut-over, and stale rows after removals."""
        graph = gnm_random(400, 10, seed=5)
        rng = np.random.default_rng(shards)
        with _pool_over(graph, shards) as (pool, part):
            owner = part.shard_of_array(np.arange(400))
            one_per_shard = [int(np.flatnonzero(owner == s)[0]) for s in range(shards)]
            shard_zero_only = np.flatnonzero(owner == 0)[:40]
            big = rng.permutation(400)[:300]
            assert shard_zero_only.size < GATHER_MIN_BATCH < big.size
            _assert_round(pool, 0, graph, part, shard_zero_only)
            assert sorted(pool._workers) == [0]  # idle shards spawn nothing
            _assert_round(pool, 1, graph, part, one_per_shard)
            _assert_round(pool, 2, graph, part, one_per_shard[:1])
            final = _assert_round(pool, 3, graph, part, big)
            assert 0 < np.count_nonzero(final) < big.size
            for node in big[final].tolist():
                graph.remove_node(node)
            survivors = rng.permutation(np.asarray(graph.nodes(), dtype=np.int64))
            _assert_round(pool, 4, graph, part, survivors)  # over stale CSR rows

    def test_spawn_start_method_ships_the_csr_by_pickle(self):
        graph = gnm_random(120, 6, seed=9)
        with _pool_over(graph, 2) as (pool, part):
            pool._ctx = multiprocessing.get_context("spawn")
            nodes = np.random.default_rng(1).permutation(120)[:90]
            final = _assert_round(pool, 0, graph, part, nodes)
            assert 0 < np.count_nonzero(final) < nodes.size


_real_worker_main = sharded._shard_worker_main


def _lying_worker(bad_reply):
    """A worker main whose first incarnation answers *bad_reply(message)*."""

    def main(conns, payload):
        if payload["attempt"] > 0:
            return _real_worker_main(conns, payload)
        recv_conn, send_conn = conns
        send_conn.send(bad_reply(recv_conn.recv()))
        recv_conn.poll(30)  # stay alive: the supervisor must hang up on us

    return main


BAD_REPLIES = {
    "positions-list": lambda msg: {"ok": True, "positions": [0]},
    "mask-too-short": lambda msg: {
        "ok": True,
        "mask": np.ones(len(msg["sub"]) - 1, dtype=bool),
    },
    "mask-too-long": lambda msg: {
        "ok": True,
        "mask": np.ones(len(msg["sub"]) + 1, dtype=bool),
    },
    "mask-not-bool": lambda msg: {
        "ok": True,
        "mask": np.ones(len(msg["sub"]), dtype=np.int64),
    },
    "mask-a-list": lambda msg: {"ok": True, "mask": [True] * len(msg["sub"])},
    "mask-2d": lambda msg: {
        "ok": True,
        "mask": np.ones((len(msg["sub"]), 1), dtype=bool),
    },
    "not-a-dict": lambda msg: [True] * len(msg["sub"]),
}


@pytest.mark.skipif(
    mp_context().get_start_method() != "fork",
    reason="the stand-in worker is a closure: it needs fork to reach the child",
)
class TestMalformedReplies:
    @pytest.mark.parametrize("kind", sorted(BAD_REPLIES))
    def test_malformed_reply_respawns_and_redispatches(self, kind, monkeypatch):
        monkeypatch.setattr(
            sharded, "_shard_worker_main", _lying_worker(BAD_REPLIES[kind])
        )
        graph = gnm_random(80, 6, seed=3)
        with _pool_over(graph, 2) as (pool, part):
            nodes = np.random.default_rng(2).permutation(80)[:60]
            _assert_round(pool, 0, graph, part, nodes)
            assert pool.respawns == 2  # each shard's first incarnation lied
            assert pool._attempts == [1, 1]
            _assert_round(pool, 1, graph, part, nodes[::-1])
            assert pool.respawns == 2

    def test_malformed_replies_count_against_the_respawn_budget(self, monkeypatch):
        monkeypatch.setattr(
            sharded,
            "_shard_worker_main",
            _lying_worker(BAD_REPLIES["mask-too-short"]),
        )
        graph = gnm_random(80, 6, seed=3)
        with _pool_over(graph, 2, max_respawns=1) as (pool, part):
            with pytest.raises(RuntimeEngineError, match="respawn budget.*malformed"):
                _round(pool, 0, graph, part, np.arange(60))


class TestNodesOutsideTheSpawnTimeTable:
    @pytest.mark.parametrize("bad", [50, 10**6, -1])
    def test_supervisor_raises_before_any_worker_sees_the_round(self, bad):
        graph = gnm_random(50, 4, seed=1)
        with _pool_over(graph, 2) as (pool, part):
            _assert_round(pool, 0, graph, part, np.arange(30))
            with _PostSpy() as spy, pytest.raises(RuntimeEngineError) as err:
                _round(pool, 1, graph, part, [3, bad, 7])
            assert f"batch node {bad} " in str(err.value)
            assert "['consuming', 'replay']" in str(err.value)
            assert spy.messages == [] and pool.respawns == 0
            _assert_round(pool, 2, graph, part, np.arange(30))  # scratch still clean

    def test_a_node_added_under_the_pool_is_named(self):
        graph = gnm_random(50, 4, seed=1)
        with _pool_over(graph, 2) as (pool, part):
            _assert_round(pool, 0, graph, part, np.arange(30))
            fresh = graph.add_node()  # what a regenerating commit would do
            with pytest.raises(RuntimeEngineError, match=f"batch node {fresh} "):
                _round(pool, 1, graph, part, [0, fresh])

    @pytest.mark.parametrize("bad", [20, -1])
    def test_worker_replies_with_the_named_error_not_an_index_error(self, bad):
        graph = gnm_random(20, 3, seed=4)
        intra, _ = partition_graph(graph, 2).edge_split(graph)
        payload = {
            "shard": 0,
            "attempt": 0,
            "csr": sharded._node_csr(intra[0], 20),
            "faults": None,
        }
        worker = PersistentWorker(sharded._shard_worker_main, payload)
        try:
            worker.post({"step": 0, "seq": None, "sub": np.array([1, bad, 2])})
            status, reply = worker.collect(30)
        finally:
            worker.close()
        assert status == "ok" and reply["ok"] is False
        assert reply["error"].startswith("RuntimeEngineError: ")
        assert f"batch node {bad} " in reply["error"]
        assert "['consuming', 'replay']" in reply["error"]

    def test_a_repeated_node_is_an_error_not_a_silent_abort(self):
        graph = gnm_random(50, 4, seed=1)
        with _pool_over(graph, 2, max_respawns=0) as (pool, part):
            with pytest.raises(RuntimeEngineError, match="appears twice"):
                _round(pool, 0, graph, part, [4, 5, 4])
