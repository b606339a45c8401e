"""Commit-order semantics of the optimistic scheduler (§2.1).

The scheduler draws ``m`` distinct nodes uniformly at random; the draw order
``π_m`` is the commit order.  Walking the prefix in order, a node *commits*
iff no neighbour of it has already committed; otherwise it *aborts* (its
speculative work is rolled back).  The committed set is therefore exactly
the greedy maximal independent set of the induced subgraph visited in
permutation order, and the number of aborts is ``k(π_m) = m − |committed|``.

Two implementations are provided:

* :func:`committed_set` — direct set-based walk over a :class:`CCGraph`;
  the readable reference used by the runtime engine (whose graphs are
  small-ish and mutate every step).
* :func:`committed_mask_csr` — vectorised resolution over a frozen
  :class:`GraphSnapshot`, used by the Monte-Carlo estimators which
  evaluate hundreds of thousands of prefixes of a *static* graph.  The
  actual array kernel lives in :mod:`repro.runtime.kernels` (it is shared
  with the engine's fast path); this module wraps it with model-level
  validation, and :func:`committed_mask_batch` resolves many independent
  prefixes through a *single* fixed-point iteration.

The tests cross-check the implementations against each other and against
brute-force enumeration on tiny graphs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError
from repro.graph.ccgraph import CCGraph, GraphSnapshot
from repro.runtime.kernels import greedy_commit_mask_batch

__all__ = [
    "committed_set",
    "conflict_count",
    "conflict_ratio_realization",
    "committed_mask_csr",
    "committed_mask_batch",
    "PrefixSampler",
]


def committed_set(graph: CCGraph, order: Sequence[int]) -> list[int]:
    """Nodes of *order* that commit, walking the prefix in commit order.

    *order* must contain distinct nodes of *graph*.  Returns committed node
    ids in commit order.  The result is a maximal independent set of the
    subgraph induced by ``set(order)``.
    """
    committed: set[int] = set()
    out: list[int] = []
    seen: set[int] = set()
    for v in order:
        if v in seen:
            raise ModelError(f"duplicate node {v} in commit order")
        seen.add(v)
        neigh = graph.neighbors(v)  # raises NodeNotFoundError if absent
        if committed.isdisjoint(neigh):
            committed.add(v)
            out.append(v)
    return out


def conflict_count(graph: CCGraph, order: Sequence[int]) -> int:
    """``k(π_m)`` — number of aborted tasks for this commit order."""
    return len(order) - len(committed_set(graph, order))


def conflict_ratio_realization(graph: CCGraph, order: Sequence[int]) -> float:
    """``r(π_m) = k(π_m)/m`` for this commit order (0 for an empty prefix)."""
    m = len(order)
    if m == 0:
        return 0.0
    return conflict_count(graph, order) / m


def committed_mask_batch(
    snapshot: GraphSnapshot, prefixes: np.ndarray
) -> np.ndarray:
    """Resolve many commit-order prefixes through one vectorised pass.

    Parameters
    ----------
    snapshot:
        CSR view of the CC graph.
    prefixes:
        ``int64[R, m]`` array of node *indices* (positions in
        ``snapshot.node_ids``); each row is one commit order, without
        duplicates within the row.

    Returns
    -------
    ``bool[R, m]`` — ``True`` where the corresponding slot commits.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    if prefixes.ndim != 2:
        raise ModelError(f"prefixes must be 2-D, got shape {prefixes.shape}")
    if prefixes.size:
        if prefixes.min() < 0 or prefixes.max() >= snapshot.num_nodes:
            raise ModelError("prefix contains indices outside the snapshot")
    try:
        return greedy_commit_mask_batch(snapshot.indptr, snapshot.indices, prefixes)
    except ValueError as exc:
        raise ModelError(str(exc)) from None


def committed_mask_csr(
    snapshot: GraphSnapshot, prefix: np.ndarray
) -> np.ndarray:
    """Vectorised committed/aborted resolution on a frozen graph.

    Parameters
    ----------
    snapshot:
        CSR view of the CC graph.
    prefix:
        ``int64[m]`` array of node *indices* (positions in
        ``snapshot.node_ids``), in commit order, without duplicates.

    Returns
    -------
    ``bool[m]`` — ``True`` where the corresponding prefix entry commits.
    """
    prefix = np.asarray(prefix, dtype=np.int64)
    if prefix.ndim != 1:
        raise ModelError(f"prefix must be 1-D, got shape {prefix.shape}")
    if prefix.shape[0] == 0:
        return np.empty(0, dtype=bool)
    return committed_mask_batch(snapshot, prefix[None, :])[0]


class PrefixSampler:
    """Batched sampler of random commit prefixes over a fixed snapshot.

    Single draws re-use one permutation buffer (each draw is a fresh
    uniform permutation read off at ``m`` entries).  The batched entry
    points draw *all* replications in one vectorised RNG call
    (:meth:`draw_batch`) and resolve them through one fixed-point kernel
    pass (:meth:`committed_counts`) — the Monte-Carlo estimators of
    :mod:`repro.model.conflict_ratio` run entirely on this path.
    """

    #: soft cap on the elements materialised per batched draw + kernel pass;
    #: replications beyond it are processed in blocks
    MAX_BATCH_ELEMENTS = 1 << 23

    def __init__(self, snapshot: GraphSnapshot, rng: np.random.Generator):
        self._snapshot = snapshot
        self._rng = rng
        self._buffer = np.arange(snapshot.num_nodes, dtype=np.int64)
        self._max_degree = int(snapshot.degrees.max()) if snapshot.num_nodes else 0

    def draw(self, m: int) -> np.ndarray:
        """One uniform ordered ``m``-prefix of node indices."""
        n = self._buffer.shape[0]
        if not 0 <= m <= n:
            raise ModelError(f"prefix length {m} out of range [0, {n}]")
        self._rng.shuffle(self._buffer)
        return self._buffer[:m].copy()

    def committed(self, m: int) -> np.ndarray:
        """Draw a prefix and return its committed mask."""
        return committed_mask_csr(self._snapshot, self.draw(m))

    def draw_batch(self, m: int, reps: int) -> np.ndarray:
        """``int64[reps, m]`` — *reps* independent prefixes, one RNG call.

        Each row is the head of an independent uniform permutation of all
        node indices (``rng.permuted`` over a ``reps × n`` matrix), so the
        rows follow exactly the paper's ``π_m`` distribution.
        """
        n = self._snapshot.num_nodes
        if not 0 <= m <= n:
            raise ModelError(f"prefix length {m} out of range [0, {n}]")
        if reps < 0:
            raise ModelError(f"cannot draw {reps} replications")
        base = np.tile(np.arange(n, dtype=np.int64), (reps, 1))
        return self._rng.permuted(base, axis=1)[:, :m]

    def committed_counts(self, m: int, reps: int) -> np.ndarray:
        """``int64[reps]`` committed counts over independent random prefixes.

        Per row the kernel holds an ``n``-wide position table and up to
        ``m · max_degree`` gathered arcs, so a block gets
        ``MAX_BATCH_ELEMENTS // max(n, m · max_degree)`` rows;
        ``rng.permuted`` shuffles row by row, so the split never changes
        the counts.
        """
        per_row = max(1, self._snapshot.num_nodes, m * self._max_degree)
        rows_per_block = max(1, self.MAX_BATCH_ELEMENTS // per_row)
        out = np.empty(reps, dtype=np.int64)
        for start in range(0, reps, rows_per_block):
            block = min(rows_per_block, reps - start)
            prefixes = self.draw_batch(m, block)
            mask = committed_mask_batch(self._snapshot, prefixes)
            out[start : start + block] = mask.sum(axis=1)
        return out
