"""Tests for repro.runtime.workset."""

import numpy as np
import pytest

from repro.errors import WorksetEmptyError
from repro.runtime.task import Task
from repro.runtime.workset import ArrivalWorkset, RandomWorkset


def fill(ws, n):
    tasks = [Task(payload=i) for i in range(n)]
    ws.add_all(tasks)
    return tasks


@pytest.fixture(params=[RandomWorkset, ArrivalWorkset])
def workset(request):
    return request.param()


class TestCommonBehaviour:
    def test_len_and_bool(self, workset):
        assert len(workset) == 0 and not workset
        fill(workset, 3)
        assert len(workset) == 3 and workset

    def test_take_removes(self, workset, rng):
        fill(workset, 10)
        batch = workset.take(4, rng)
        assert len(batch) == 4
        assert len(workset) == 6

    def test_take_more_than_available(self, workset, rng):
        fill(workset, 3)
        batch = workset.take(10, rng)
        assert len(batch) == 3 and len(workset) == 0

    def test_take_from_empty_raises(self, workset, rng):
        with pytest.raises(WorksetEmptyError):
            workset.take(1, rng)

    def test_take_negative_raises(self, workset, rng):
        fill(workset, 1)
        with pytest.raises(ValueError):
            workset.take(-1, rng)

    def test_no_duplicates_across_takes(self, workset, rng):
        tasks = fill(workset, 20)
        seen = []
        while workset:
            seen.extend(t.uid for t in workset.take(3, rng))
        assert sorted(seen) == sorted(t.uid for t in tasks)


class TestOrderingPolicies:
    def test_fifo_order(self, rng):
        # ArrivalWorkset.take is the window=1 draw: strict arrival order
        ws = ArrivalWorkset()
        fill(ws, 5)
        batch = ws.take(3, rng)
        assert [t.payload for t in batch] == [0, 1, 2]

    def test_random_is_uniform_prefix(self):
        # first element of a batch should be uniform over items
        counts = np.zeros(5)
        for seed in range(4000):
            ws = RandomWorkset()
            fill(ws, 5)
            batch = ws.take(2, np.random.default_rng(seed))
            counts[batch[0].payload] += 1
        assert counts.min() > 650  # expect 800 each

    def test_random_deterministic_given_rng(self):
        ws1, ws2 = RandomWorkset(), RandomWorkset()
        fill(ws1, 10)
        fill(ws2, 10)
        b1 = ws1.take(5, np.random.default_rng(9))
        b2 = ws2.take(5, np.random.default_rng(9))
        assert [t.payload for t in b1] == [t.payload for t in b2]
