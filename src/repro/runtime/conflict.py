"""Conflict-detection policies.

Given a speculative batch in commit order, a policy decides who commits and
who aborts under the paper's semantics: walking the batch in order, a task
commits iff it does not conflict with any *already committed* task of the
batch (an earlier task that itself aborted does not block later ones).

Two policies cover the two ways conflicts are specified:

* :class:`ItemLockPolicy` — Galois-style: tasks declare neighbourhoods of
  abstract data items (via the operator); a task conflicts with another iff
  their neighbourhoods intersect.  Commit-order lock acquisition realises
  the greedy-independent-set semantics without ever materialising the CC
  graph.
* :class:`ExplicitGraphPolicy` — model-style: conflicts are the edges of an
  explicit :class:`~repro.graph.CCGraph` whose nodes are the task payloads
  (used by synthetic CC-graph workloads and by the analytic experiments).

Every commit order calls :meth:`~ConflictPolicy.resolve_fast`, which must
equal :meth:`~ConflictPolicy.resolve` bit for bit (the differential
suites enforce it) and by default *is* that walk.  Only
:class:`ExplicitGraphPolicy` overrides it, with a CSR gather that wins
on large batches over a graph that held still.  Item locks have no array
form — neighbourhoods come through the scalar operator API either way —
so their walk, :func:`item_lock_walk`, is what every app runs under
every commit order; it copies a neighbourhood only when the operator
did not already hand it a set.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from operator import itemgetter as _itemgetter

import numpy as np

from repro.errors import ConflictDetectionError
from repro.graph.ccgraph import CCGraph, GraphSnapshot
from repro.runtime.kernels import GATHER_MIN_BATCH, csr_greedy_commit_mask
from repro.runtime.task import Operator, Task

__all__ = ["ConflictPolicy", "ItemLockPolicy", "ExplicitGraphPolicy", "BatchOutcome"]


class BatchOutcome:
    """Result of conflict resolution for one speculative batch.

    ``commit_slots`` / ``abort_slots`` optionally carry the batch
    positions (ascending) of the two partitions when the policy computed
    them anyway — mask-based fast paths do — sparing the engine a
    uid→position rebuild when it records the step.  ``None`` means the
    policy did not track positions; consumers must fall back.  Index
    arrays are accepted as-is and materialised into lists only on first
    access (runs without a recorder never read them).
    """

    __slots__ = ("committed", "aborted", "_commit_slots", "_abort_slots")

    def __init__(
        self,
        committed: list[Task],
        aborted: list[Task],
        commit_slots: "list[int] | np.ndarray | None" = None,
        abort_slots: "list[int] | np.ndarray | None" = None,
    ):
        self.committed = committed
        self.aborted = aborted
        self._commit_slots = commit_slots
        self._abort_slots = abort_slots

    @property
    def commit_slots(self) -> "list[int] | None":
        slots = self._commit_slots
        if slots is not None and not isinstance(slots, list):
            slots = self._commit_slots = slots.tolist()
        return slots

    @property
    def abort_slots(self) -> "list[int] | None":
        slots = self._abort_slots
        if slots is not None and not isinstance(slots, list):
            slots = self._abort_slots = slots.tolist()
        return slots

    @property
    def launched(self) -> int:
        return len(self.committed) + len(self.aborted)

    @property
    def conflict_ratio(self) -> float:
        """``r = aborts / launched`` (0 for an empty batch)."""
        n = self.launched
        return len(self.aborted) / n if n else 0.0

    def __repr__(self) -> str:
        return (
            f"BatchOutcome(committed={len(self.committed)}, "
            f"aborted={len(self.aborted)})"
        )


class ConflictPolicy(abc.ABC):
    """Resolves one speculative batch into committed and aborted tasks."""

    @abc.abstractmethod
    def resolve(self, batch: Sequence[Task], operator: Operator) -> BatchOutcome:
        """Partition *batch* (in commit order) into committed / aborted."""

    def resolve_fast(self, batch: Sequence[Task], operator: Operator) -> BatchOutcome:
        """Vectorised resolution; must equal :meth:`resolve` bit for bit.

        Policies without an array formulation inherit this fallback to the
        reference walk.
        """
        return self.resolve(batch, operator)

    @staticmethod
    def _take(batch: Sequence[Task], idx: np.ndarray) -> list[Task]:
        """Gather ``batch`` rows at *idx* (C-speed via itemgetter)."""
        if idx.size == 0:
            return []
        if idx.size == 1:
            return [batch[int(idx[0])]]
        return list(_itemgetter(*idx.tolist())(batch))

    @classmethod
    def _split_by_mask(cls, batch: Sequence[Task], mask: np.ndarray) -> BatchOutcome:
        """Partition *batch* by a commit mask, preserving batch order."""
        commit_idx = np.flatnonzero(mask)
        abort_idx = np.flatnonzero(np.logical_not(mask))
        # flatnonzero yields ascending positions — identical to the
        # uid->position walk the engine would otherwise rebuild per step
        return BatchOutcome(
            cls._take(batch, commit_idx),
            cls._take(batch, abort_idx),
            commit_slots=commit_idx,
            abort_slots=abort_idx,
        )


def item_lock_walk(tasks: Sequence[Task], neighborhood):
    """Commit-order lock acquisition: split *tasks* into (kept, dropped).

    A task takes every item of ``neighborhood(task)`` unless a task kept
    earlier holds one of them; a dropped task holds nothing.  A ``set`` /
    ``frozenset`` neighbourhood is read in place — unioned *into* the
    held set, never aliased or mutated: it is the operator's object —
    and any other iterable is walked exactly once into a set.
    """
    held: set = set()
    kept: list = []
    dropped: list = []
    for task in tasks:
        items = neighborhood(task)
        if not isinstance(items, (set, frozenset)):
            items = set(items)
        if held.isdisjoint(items):
            held.update(items)
            kept.append(task)
        else:
            dropped.append(task)
    return kept, dropped


class ItemLockPolicy(ConflictPolicy):
    """Commit-order acquisition of abstract data-item locks.

    Walking the batch in order, each task attempts to mark every item of
    its neighbourhood; if any item is already held by a *committed* task of
    this batch, the task aborts and holds nothing.  Locks live only for the
    duration of one batch (the paper's steps are synchronous rounds).
    """

    def resolve(self, batch: Sequence[Task], operator: Operator) -> BatchOutcome:
        uids = [task.uid for task in batch]
        if len(set(uids)) != len(uids):
            seen: set[int] = set()
            first = next(uid for uid in uids if uid in seen or seen.add(uid))
            raise ConflictDetectionError(f"task {first} appears twice in batch")
        return BatchOutcome(*item_lock_walk(batch, operator.neighborhood))


class ExplicitGraphPolicy(ConflictPolicy):
    """Conflicts given by edges of an explicit CC graph over payloads.

    Task payloads must be node ids of *graph*.  A task commits iff none of
    its graph neighbours belongs to an earlier committed task of the batch
    — the definition of §2.1 verbatim.
    """

    def __init__(self, graph: CCGraph):
        self._graph = graph
        #: graph version at the last gather-sized :meth:`resolve_fast`; the
        #: CSR view is only worth building once the graph has held still
        self._seen_version: "int | None" = None
        #: node index -> batch slot scratch for the gather, -1 between calls
        self._pos = np.empty(0, dtype=np.int64)

    @property
    def graph(self) -> CCGraph:
        return self._graph

    def resolve(self, batch: Sequence[Task], operator: Operator) -> BatchOutcome:
        committed_nodes: set[int] = set()
        committed: list[Task] = []
        aborted: list[Task] = []
        seen: set[int] = set()
        for task in batch:
            if task.uid in seen:
                raise ConflictDetectionError(f"task {task.uid} appears twice in batch")
            seen.add(task.uid)
            node = task.payload
            if not isinstance(node, int) or node not in self._graph:
                raise ConflictDetectionError(
                    f"task payload {node!r} is not a live node of the CC graph"
                )
            if committed_nodes.isdisjoint(self._graph.neighbors(node)):
                committed_nodes.add(node)
                committed.append(task)
            else:
                aborted.append(task)
        return BatchOutcome(committed, aborted)

    def _gather_rows(
        self, batch: Sequence[Task]
    ) -> "tuple[GraphSnapshot, np.ndarray] | None":
        """``(snapshot, idx)`` when gathering *batch* beats the walk, else ``None``.

        The one gate of the array paths (:meth:`resolve_fast` and the
        sharded commit order): at least
        :data:`~repro.runtime.kernels.GATHER_MIN_BATCH` tasks, over a
        graph that has not changed since the previous such batch — a
        graph that morphs between steps would rebuild its CSR for every
        single use — with int payloads that are all live nodes.  ``idx``
        holds the batch's rows of the memoised ``snapshot``
        (:meth:`CCGraph.csr`) in commit order, and :attr:`_pos` is sized
        to it.  Repeated rows are left for the kernels to report:
        everything declined here or there takes the reference walk,
        which rules on it, errors included.
        """
        m = len(batch)
        if m < GATHER_MIN_BATCH:
            return None
        graph = self._graph
        version = graph.version
        if version != self._seen_version:
            self._seen_version = version
            return None
        snapshot = graph.csr()
        n = snapshot.num_nodes
        payloads = np.asarray([task.payload for task in batch])
        if payloads.dtype.kind != "i":  # floats/bools/objects
            return None
        if snapshot.ids_dense:
            if int(payloads.min()) < 0 or int(payloads.max()) >= n:
                return None  # dead node
            idx = payloads.astype(np.int64, copy=False)
        else:
            index = snapshot.index_of
            try:
                idx = np.fromiter(
                    (index[p] for p in payloads.tolist()), dtype=np.int64, count=m
                )
            except KeyError:
                return None
        if self._pos.shape[0] != n:
            self._pos = np.full(n, -1, dtype=np.int64)
        return snapshot, idx

    def resolve_fast(self, batch: Sequence[Task], operator: Operator) -> BatchOutcome:
        """Array-form resolution where it beats the walk, else the walk.

        On a batch :meth:`_gather_rows` accepts, the batch's own CSR rows
        are gathered into conflicting slot pairs
        (:func:`~repro.runtime.kernels.csr_conflict_pairs`) and resolved
        by :func:`~repro.runtime.kernels.greedy_commit_mask_from_slots` —
        O(Σ deg(batch)) per step, no per-step graph indexing.  Every
        other batch — small, over a morphing graph, or degenerate
        (non-int payloads, dead nodes, duplicate payloads, hence
        duplicate tasks; uids are process-unique) — takes
        :meth:`resolve`, which reproduces the reference behaviour
        exactly, errors included.
        """
        rows = self._gather_rows(batch)
        if rows is not None:
            snapshot, idx = rows
            mask = csr_greedy_commit_mask(
                snapshot.indptr, snapshot.indices, idx, self._pos
            )
            if mask is not None:
                return self._split_by_mask(batch, mask)
        return self.resolve(batch, operator)
