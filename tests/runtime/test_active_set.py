"""Tests for repro.runtime.active_set."""

import numpy as np
import pytest

from repro.errors import WorksetEmptyError
from repro.runtime.active_set import _SCALAR_TAKE_BELOW, ActiveSet
from repro.runtime.task import Task
from repro.runtime.workset import RandomWorkset


def fill(ws, n):
    tasks = [Task(payload=i) for i in range(n)]
    ws.add_all(tasks)
    return tasks


class TestWorksetContract:
    def test_len_and_bool(self):
        ws = ActiveSet()
        assert len(ws) == 0 and not ws
        fill(ws, 3)
        assert len(ws) == 3 and ws

    def test_take_removes(self, rng):
        ws = ActiveSet()
        fill(ws, 10)
        batch = ws.take(4, rng)
        assert len(batch) == 4
        assert len(ws) == 6

    def test_take_more_than_available(self, rng):
        ws = ActiveSet()
        fill(ws, 3)
        batch = ws.take(10, rng)
        assert len(batch) == 3 and len(ws) == 0

    def test_take_zero(self, rng):
        ws = ActiveSet()
        fill(ws, 3)
        assert ws.take(0, rng) == []
        assert len(ws) == 3

    def test_take_from_empty_raises(self, rng):
        ws = ActiveSet()
        with pytest.raises(WorksetEmptyError):
            ws.take(1, rng)

    def test_take_negative_raises(self, rng):
        ws = ActiveSet()
        fill(ws, 1)
        with pytest.raises(ValueError):
            ws.take(-1, rng)

    def test_no_duplicates_across_takes(self, rng):
        ws = ActiveSet()
        tasks = fill(ws, 20)
        seen = []
        while ws:
            seen.extend(t.uid for t in ws.take(3, rng))
        assert sorted(seen) == sorted(t.uid for t in tasks)


class TestInsertionOrder:
    def test_add_preserves_slot_order(self):
        ws = ActiveSet()
        tasks = [Task(payload=i) for i in range(5)]
        for t in tasks:
            ws.add(t)
        assert ws.tasks() == tuple(tasks)

    def test_add_batch_matches_sequential_adds(self):
        a, b = ActiveSet(), ActiveSet()
        tasks = [Task(payload=i) for i in range(7)]
        a.add_batch(tasks)
        for t in tasks:
            b.add(t)
        assert a.tasks() == b.tasks()

    def test_add_all_is_add_batch(self):
        ws = ActiveSet()
        tasks = fill(ws, 4)
        assert ws.tasks() == tuple(tasks)


class TestMembership:
    def test_contains_and_index_of(self):
        ws = ActiveSet()
        tasks = fill(ws, 5)
        for i, t in enumerate(tasks):
            assert t in ws
            assert ws.index_of(t) == i
        stranger = Task(payload=99)
        assert stranger not in ws
        assert ws.index_of(stranger) is None

    def test_discard_present(self):
        ws = ActiveSet()
        tasks = fill(ws, 5)
        assert ws.discard(tasks[1]) is True
        assert len(ws) == 4
        assert tasks[1] not in ws
        # swap-removal: the old tail fills the vacated slot
        assert ws.index_of(tasks[4]) == 1

    def test_discard_absent_returns_false(self):
        ws = ActiveSet()
        tasks = fill(ws, 3)
        stranger = Task(payload=77)
        assert ws.discard(stranger) is False
        assert len(ws) == 3
        assert ws.tasks() == tuple(tasks)

    def test_discard_tail(self):
        ws = ActiveSet()
        tasks = fill(ws, 3)
        assert ws.discard(tasks[-1]) is True
        assert ws.tasks() == tuple(tasks[:-1])

    def test_discard_after_take_rebuilds_map(self, rng):
        ws = ActiveSet()
        fill(ws, 10)
        taken = ws.take(4, rng)
        for t in taken:
            assert t not in ws
            assert ws.discard(t) is False
        remaining = ws.tasks()
        assert ws.discard(remaining[0]) is True
        assert len(ws) == 5

    def test_discard_then_readd(self, rng):
        ws = ActiveSet()
        tasks = fill(ws, 4)
        ws.discard(tasks[2])
        ws.add(tasks[2])
        assert ws.index_of(tasks[2]) == len(ws) - 1
        assert sorted(t.uid for t in ws.tasks()) == sorted(t.uid for t in tasks)


class TestBitParityWithRandomWorkset:
    """ActiveSet.take must be bit-identical to RandomWorkset.take.

    Same seed -> same batches (payload for payload) AND the same
    post-call generator state, so swapping backends mid-suite can never
    perturb any downstream draw.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2011, 99991])
    def test_single_take_parity(self, seed):
        # k on both sides of, and at, the scalar/vectorised cutoff —
        # wherever the measured crossover currently puts it
        cut = _SCALAR_TAKE_BELOW
        assert cut >= 2
        cases = [(1, 1), (5, 2), (17, 17), (64, 1), (100, 37)]
        cases += [(cut + 8, k) for k in (cut - 1, cut, cut + 1)]
        for n, k in cases:
            a, b = ActiveSet(), RandomWorkset()
            a.add_all([Task(payload=i) for i in range(n)])
            b.add_all([Task(payload=i) for i in range(n)])
            ra = np.random.default_rng(seed)
            rb = np.random.default_rng(seed)
            ba = a.take(k, ra)
            bb = b.take(k, rb)
            assert [t.payload for t in ba] == [t.payload for t in bb]
            assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("seed", [3, 17])
    def test_interleaved_ops_parity(self, seed):
        a, b = ActiveSet(), RandomWorkset()
        ra = np.random.default_rng(seed)
        rb = np.random.default_rng(seed)
        ops = np.random.default_rng(seed + 1)
        payload = 0
        for _ in range(200):
            roll = ops.random()
            if roll < 0.5 and len(a):
                k = int(ops.integers(0, len(a) + 3))
                ba = a.take(k, ra)
                bb = b.take(k, rb)
                assert [t.payload for t in ba] == [t.payload for t in bb]
            else:
                count = int(ops.integers(1, 6))
                fresh = [Task(payload=payload + i) for i in range(count)]
                payload += count
                a.add_batch(fresh)
                for t in fresh:
                    b.add(t)
            assert len(a) == len(b)
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("seed", [5, 2011])
    def test_alternating_scalar_and_vectorised_takes(self, seed):
        # one generator carried across takes that alternate between the
        # scalar small-k loop and the vectorised kernel: batches and
        # generator state must agree after every single take
        a, b = ActiveSet(), RandomWorkset()
        tasks = [Task(payload=i) for i in range(300)]
        a.add_all(tasks)
        b.add_all(tasks)
        ra = np.random.default_rng(seed)
        rb = np.random.default_rng(seed)
        cut = _SCALAR_TAKE_BELOW
        for k in [3, 40, cut - 1, cut, 1, cut + 1, 2, 64, 5]:
            ba = a.take(k, ra)
            bb = b.take(k, rb)
            assert [t.payload for t in ba] == [t.payload for t in bb]
            assert ra.bit_generator.state == rb.bit_generator.state
            a.add_batch(ba)  # re-enqueue, as aborts and replay commits do
            b.add_all(bb)
            assert [t.payload for t in a.tasks()] == [t.payload for t in b._items]

    @pytest.mark.parametrize("seed", [4, 2011])
    def test_one_set_drawn_by_two_generators_in_turn(self, seed):
        # the raw-stream draw reads whichever generator it is handed, so
        # takes switching between a PCG64 and an MT19937 stream must keep
        # both in step with the reference sampler's
        a, b = ActiveSet(), RandomWorkset()
        tasks = [Task(payload=i) for i in range(200)]
        a.add_all(tasks)
        b.add_all(tasks)
        streams = [
            (np.random.Generator(bg(seed)), np.random.Generator(bg(seed)))
            for bg in (np.random.PCG64, np.random.MT19937)
        ]
        cut = _SCALAR_TAKE_BELOW
        for turn, k in enumerate([1, 3, cut - 1, 2, cut, 5, 1, 40, 4, 7]):
            ra, rb = streams[turn % 2]
            ba = a.take(k, ra)
            bb = b.take(k, rb)
            assert [t.payload for t in ba] == [t.payload for t in bb]
            a.add_batch(ba)
            b.add_all(bb)
        pcg_a, pcg_b = streams[0]
        assert pcg_a.bit_generator.state == pcg_b.bit_generator.state
        mt_a, mt_b = (rng.bit_generator.state["state"] for rng in streams[1])
        assert np.array_equal(mt_a["key"], mt_b["key"]) and mt_a["pos"] == mt_b["pos"]
