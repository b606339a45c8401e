"""Unordered work-set implementations.

The paper treats only *unordered* algorithms: any pending task may execute
at any time, so the work-set is a bag.  The scheduler model picks active
tasks **uniformly at random** (§2); :class:`RandomWorkset` implements that
with O(1) swap-removal.  :class:`ArrivalWorkset` adds the
bounded-staleness queue behind the asynchronous commit-order policy:
arrival order with a uniform draw over the oldest ``window`` entries.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro.errors import WorksetEmptyError
from repro.runtime.kernels import sample_window_draws
from repro.runtime.task import Task

__all__ = ["Workset", "RandomWorkset", "ArrivalWorkset"]


class Workset(abc.ABC):
    """A bag of pending tasks supporting batched removal."""

    @abc.abstractmethod
    def add(self, task: Task) -> None:
        """Insert one task."""

    @abc.abstractmethod
    def take(self, count: int, rng: np.random.Generator) -> list[Task]:
        """Remove and return up to *count* tasks (policy-defined order).

        The returned order is the speculative *commit order* of the batch.
        Returns fewer than *count* tasks when the set is nearly empty and
        raises :class:`WorksetEmptyError` when it is empty.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of pending tasks."""

    def add_all(self, tasks: "list[Task] | tuple[Task, ...]") -> None:
        """Insert many tasks."""
        for t in tasks:
            self.add(t)

    def __bool__(self) -> bool:
        return len(self) > 0


def swap_pop_sample(items: list, k: int, rng: np.random.Generator) -> list:
    """Remove and return *k* uniform draws from *items*, in draw order.

    The reference ``π_m`` sampler: a partial Fisher–Yates walk of one
    scalar bounded draw, one swap with the tail and one pop per task.
    """
    batch = []
    for _ in range(k):
        j = int(rng.integers(0, len(items)))
        items[j], items[-1] = items[-1], items[j]
        batch.append(items.pop())
    return batch


class RandomWorkset(Workset):
    """Uniformly random batched removal (the paper's scheduler model).

    Backing store is an array-backed list with swap-removal: removing a
    random element is O(1) and the batch order is a uniform ordered sample
    without replacement — exactly the ``π_m`` prefix distribution.
    """

    def __init__(self) -> None:
        self._items: list[Task] = []

    def add(self, task: Task) -> None:
        self._items.append(task)

    def take(self, count: int, rng: np.random.Generator) -> list[Task]:
        if not self._items:
            raise WorksetEmptyError("take() from empty work-set")
        if count < 0:
            raise ValueError(f"cannot take {count} tasks")
        return swap_pop_sample(self._items, min(count, len(self._items)), rng)

    def __len__(self) -> int:
        return len(self._items)


class ArrivalWorkset(Workset):
    """Arrival-order queue with a bounded-staleness selection window.

    Backs the fully asynchronous commit-order policy
    (:class:`~repro.runtime.policies.AsyncCommitOrder`, modelling
    Atos-style async task scheduling): tasks are kept in arrival order
    and each batch entry is drawn uniformly from the *oldest*
    ``window`` pending tasks, so no task can be overtaken by more than
    ``window - 1`` younger ones.  ``window=1`` degenerates to strict
    FIFO and consumes no randomness; ``window >= len`` degenerates to
    the uniform ``π_m`` draw of :class:`RandomWorkset` (in
    distribution).

    Aborted tasks re-enter through :meth:`add` and therefore rejoin at
    the *tail* — asynchronous resubmission, not priority restoration.
    """

    def __init__(self) -> None:
        self._items: deque[Task] = deque()

    def add(self, task: Task) -> None:
        self._items.append(task)

    def take(self, count: int, rng: np.random.Generator) -> list[Task]:
        """Strict arrival-order removal (the ``window=1`` special case)."""
        batch, _ = self.take_window(count, 1, rng)
        return batch

    def take_window(
        self, count: int, window: int, rng: np.random.Generator
    ) -> "tuple[list[Task], list[int]]":
        """Remove up to *count* tasks, each drawn from the head window.

        Returns ``(batch, draws)`` where ``draws[i]`` is the in-window
        index (0 = oldest pending) task ``i`` was taken from — the
        policy's per-step scheduling decision, recorded in traces so
        runs stay replayable.  ``window=1`` never touches *rng*.  The
        queue is a deque, so each removal costs the in-window offset
        (two short rotations), never a shift of the whole backlog.
        """
        if not self._items:
            raise WorksetEmptyError("take() from empty work-set")
        if count < 0:
            raise ValueError(f"cannot take {count} tasks")
        items = self._items
        k = min(count, len(items))
        if window == 1:
            return [items.popleft() for _ in range(k)], [0] * k
        draws = sample_window_draws(len(items), k, window, rng)
        batch: list[Task] = []
        for j in draws:
            j = int(j)
            items.rotate(-j)
            batch.append(items.popleft())
            items.rotate(j)
        return batch, [int(j) for j in draws]

    def __len__(self) -> int:
        return len(self._items)
