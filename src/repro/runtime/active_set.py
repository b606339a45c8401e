"""Incremental active-set work-set: the default bag of every unordered run.

``BENCH_obs.json`` showed ``select`` eating ~73% of step wall-clock: the
fast kernels had already won ``resolve``/``commit``, but the reference
:class:`~repro.runtime.workset.RandomWorkset` still walks a per-task
Python loop of scalar RNG draws every step.  :class:`ActiveSet` is the
same bag with the draws fetched per batch instead of per task and the
bookkeeping made O(delta):

* **dense slot array** — tasks live in a contiguous list; slot ``i``
  holds the ``i``-th pending task, so commits/aborts re-enter via a
  single ``list.extend`` (:meth:`add_batch`) instead of per-task
  appends;
* **batched prefix sampling** — :meth:`take` fetches all ``k`` bounded
  draws up front and replays them through one swap loop, which is
  *bit-identical* to ``RandomWorkset.take`` under the same seed (same
  batches, same generator state afterwards — the differential and
  distribution suites enforce both).  Large batches get their draws
  from one :func:`~repro.runtime.kernels.sample_prefix_draws` call;
  small ones, where that call's fixed cost outweighs the draws, from
  :func:`~repro.runtime.kernels.scalar_prefix_draws`, which computes
  NumPy's bounded draw in Python from the generator's raw 32-bit
  stream;
* **lazy uid ↔ slot map** — :meth:`discard` and :meth:`__contains__`
  need task-id → slot lookups, but the engine's hot path never does, so
  the map is built on first use and invalidated wholesale by
  :meth:`take` (k dict deletions would cost more than one rebuild
  amortised over a batch).

The unordered commit-order policy takes its batched apply path whenever
the work-set offers :meth:`ActiveSet.add_batch`.

**Invariant** (fuzzed in ``tests/test_fuzz.py``): after any sequence of
``add`` / ``add_batch`` / ``take`` / ``discard``, the slot list and the
uid → slot map equal those of a from-scratch rebuild; and any prefix of
draws fed through :meth:`take` leaves the list in exactly the state the
reference sampler's swap-pop loop would.

Membership helpers (:meth:`discard`, :meth:`__contains__`) assume each
task is present at most once — the engine guarantees it (a task is
either pending or in flight, never both).  ``add``/``take`` stay exact
even with duplicates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorksetEmptyError
from repro.runtime.kernels import sample_prefix_draws, scalar_prefix_draws
from repro.runtime.task import Task
from repro.runtime.workset import Workset

__all__ = ["ActiveSet"]

#: below this many draws, :func:`scalar_prefix_draws` beats one
#: :func:`sample_prefix_draws` call.  Measured crossover: a Python-side
#: draw from the raw 32-bit stream costs ~0.9 µs, the vector call ~10 µs
#: flat whatever ``k``, so a whole ``take`` (and its ``add_batch``)
#: reads 15.5 vs 16.7 µs at k = 12, 17.4 vs 17.0 at k = 14 and 19.1 vs
#: 17.5 at k = 16 (scalar vs vector, first quartiles of 15 rounds)
_SCALAR_TAKE_BELOW = 14


class ActiveSet(Workset):
    """Dense active-set work-set with O(delta) updates and batched draws.

    Drop-in replacement for :class:`~repro.runtime.workset.RandomWorkset`
    — same uniform m-out-of-n ``π_m`` prefix distribution, bit-identical
    batches under the same seed.  Every workload defaults to it; pass
    ``workset=RandomWorkset()`` to a workload constructor to run on the
    reference sampler instead (what the differential tests do).
    """

    def __init__(self) -> None:
        self._items: list[Task] = []
        #: uid -> slot, built lazily by :meth:`_slots`; ``None`` = stale
        self._slot_of: "dict[int, int] | None" = None

    # -- insertion ------------------------------------------------------
    def add(self, task: Task) -> None:
        slots = self._slot_of
        if slots is not None:
            slots[task.uid] = len(self._items)
        self._items.append(task)

    def add_batch(self, tasks: "list[Task] | tuple[Task, ...]") -> None:
        """Append *tasks* in order via one ``list.extend`` (O(delta))."""
        slots = self._slot_of
        if slots is not None:
            base = len(self._items)
            for offset, task in enumerate(tasks):
                slots[task.uid] = base + offset
        self._items.extend(tasks)

    def add_all(self, tasks: "list[Task] | tuple[Task, ...]") -> None:
        self.add_batch(tasks)

    # -- removal --------------------------------------------------------
    def take(self, count: int, rng: np.random.Generator) -> list[Task]:
        """Uniform batch draw, bit-identical to ``RandomWorkset.take``.

        All ``k`` bounded draws are fetched first; the swap loop then
        replays the reference sampler's partial Fisher–Yates walk with
        the pops deferred — the selected tasks end up (reversed) in the
        tail, which is sliced off in one go.  Below
        :data:`_SCALAR_TAKE_BELOW` draws the vector kernel's fixed cost
        outweighs the draws, so they come from the raw-stream helper
        instead — same values and generator state by the parity contract
        both kernels share.
        """
        items = self._items
        if not items:
            raise WorksetEmptyError("take() from empty work-set")
        if count < 0:
            raise ValueError(f"cannot take {count} tasks")
        n = len(items)
        k = min(count, n)
        if k == 0:
            return []
        if k < _SCALAR_TAKE_BELOW:
            draws = scalar_prefix_draws(n, k, rng)
        else:
            draws = sample_prefix_draws(n, k, rng).tolist()
        last = n - 1
        for j in draws:
            items[j], items[last] = items[last], items[j]
            last -= 1
        batch = items[n - k:]
        batch.reverse()
        del items[n - k:]
        if self._slot_of is not None:
            self._slot_of = None  # wholesale invalidation beats k deletions
        return batch

    def discard(self, task: Task) -> bool:
        """Remove *task* if pending (O(1) amortised swap-removal).

        Returns ``True`` when the task was present.  The first discard
        after a :meth:`take` rebuilds the uid → slot map (O(n)); further
        discards are O(1).
        """
        slots = self._slots()
        slot = slots.pop(task.uid, None)
        if slot is None:
            return False
        items = self._items
        mover = items[-1]
        if mover.uid != task.uid:
            items[slot] = mover
            slots[mover.uid] = slot
        items.pop()
        return True

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, task: Task) -> bool:
        return task.uid in self._slots()

    def index_of(self, task: Task) -> "int | None":
        """Current slot of *task*, or ``None`` when not pending."""
        return self._slots().get(task.uid)

    def tasks(self) -> "tuple[Task, ...]":
        """Immutable snapshot of the slot list (slot order)."""
        return tuple(self._items)

    def _slots(self) -> dict[int, int]:
        slots = self._slot_of
        if slots is None:
            slots = {task.uid: i for i, task in enumerate(self._items)}
            self._slot_of = slots
        return slots
