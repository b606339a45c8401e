"""Edge-cut graph partitioning with halo views for sharded execution.

A :class:`GraphPartition` assigns every node of a :class:`CCGraph` to
exactly one of ``k`` shards.  The assignment is a *total function over
node ids* — ids the partitioner has never seen (nodes added by later
graph morphs) fall back to a deterministic ``id % k`` rule — so a
partition built once stays valid while the graph mutates underneath it.

On top of the assignment the module provides the *halo* vocabulary of
distributed graph processing:

* the **boundary** of a shard: its own nodes with at least one neighbour
  in another shard;
* the **halo** (ghost nodes) of a shard: the nodes of *other* shards
  adjacent to it — exactly the set a shard worker must hear about before
  it can commit a boundary node;
* per-shard **intra-edge** arrays and the global **cut-edge** array,
  projected from the memoised CSR snapshot.

Finally it implements the two-phase commit rule used by
``ShardedCommitOrder`` (:mod:`repro.runtime.policies`):

* **phase 1 (local)** — each shard resolves its slice of the batch with
  the usual greedy walk, consulting only intra-shard edges;
* **phase 2 (halo exchange)** — locally committed tasks are walked once
  more in global batch order and survive iff no earlier *surviving*
  cross-shard neighbour committed.

The composition never commits two adjacent tasks in one round (phase 1
rules out intra-shard pairs, phase 2 rules out cut pairs), so sharding
preserves conflict-serializability; it may abort strictly more than the
global greedy walk — that surplus is the price of bounded cross-shard
staleness, and ``shards=1`` degenerates to the plain greedy walk with no
cut edges at all.  :func:`two_phase_commit_mask` here is the reference
walk; the array form the sharded order runs on large batches over a
graph that held still is
:func:`repro.runtime.kernels.csr_two_phase_commit_mask`, and the
differential suite pins the two to each other byte-for-byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.ccgraph import CCGraph

__all__ = [
    "GraphPartition",
    "partition_graph",
    "two_phase_commit_mask",
]


class GraphPartition:
    """A total, morph-stable assignment of node ids to ``shards`` shards.

    Nodes known at build time carry a balanced contiguous-block
    assignment (sorted ids split into near-equal runs, which keeps
    id-local adjacency — paths, grids, generator output — mostly
    intra-shard); any id beyond the build-time table maps to
    ``id % shards``.  Node ids are never reused by :class:`CCGraph`, so
    the function stays stable under arbitrary add/remove sequences.
    """

    def __init__(self, shards: int, lookup: np.ndarray):
        if shards < 1:
            raise GraphError(f"shard count must be >= 1, got {shards}")
        self.shards = int(shards)
        self._lookup = np.ascontiguousarray(lookup, dtype=np.int64)

    # -- assignment ------------------------------------------------------
    def shard_of(self, nid: int) -> int:
        """Shard owning node id *nid* (total: any int >= 0 has an owner)."""
        if 0 <= nid < self._lookup.size:
            return int(self._lookup[nid])
        return int(nid) % self.shards

    def shard_of_array(self, ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shard_of` over an int array of node ids."""
        ids = np.asarray(ids, dtype=np.int64)
        out = ids % self.shards
        known = (ids >= 0) & (ids < self._lookup.size)
        out[known] = self._lookup[ids[known]]
        return out

    # -- views over a live graph ----------------------------------------
    def members(self, graph: "CCGraph", shard: int) -> "list[int]":
        """Live nodes owned by *shard*, in ascending id order."""
        self._check_shard(shard)
        return [n for n in sorted(graph.nodes()) if self.shard_of(n) == shard]

    def boundary(self, graph: "CCGraph", shard: int) -> "frozenset[int]":
        """Nodes of *shard* with at least one neighbour in another shard."""
        self._check_shard(shard)
        return frozenset(
            n
            for n in graph.nodes()
            if self.shard_of(n) == shard
            and any(self.shard_of(b) != shard for b in graph.neighbors(n))
        )

    def halo(self, graph: "CCGraph", shard: int) -> "frozenset[int]":
        """Ghost nodes of *shard*: foreign nodes adjacent to its members."""
        self._check_shard(shard)
        ghosts: set[int] = set()
        for n in graph.nodes():
            if self.shard_of(n) != shard:
                continue
            for b in graph.neighbors(n):
                if self.shard_of(b) != shard:
                    ghosts.add(b)
        return frozenset(ghosts)

    def edge_split(
        self, graph: "CCGraph"
    ) -> "tuple[dict[int, np.ndarray], np.ndarray]":
        """Split the live edge set into per-shard intra edges and cut edges.

        Returns ``(intra, cut)`` where ``intra[s]`` is an ``(e_s, 2)``
        int64 array of node-id pairs with both endpoints owned by shard
        ``s`` and ``cut`` is the ``(c, 2)`` array of cross-shard pairs.
        Projected from the memoised CSR snapshot, so repeated calls on an
        unchanged graph are cheap.
        """
        snap = graph.csr()
        iu, iv = snap.edge_list
        u = snap.node_ids[iu]
        v = snap.node_ids[iv]
        su = self.shard_of_array(u)
        sv = self.shard_of_array(v)
        same = su == sv
        pairs = np.stack([u, v], axis=1)
        intra = {
            s: pairs[same & (su == s)] for s in range(self.shards)
        }
        return intra, pairs[~same]

    def describe(self) -> "dict[str, object]":
        return {"type": "block", "shards": self.shards, "table": self._lookup.size}

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise GraphError(
                f"shard index {shard} outside [0, {self.shards})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphPartition(shards={self.shards}, table={self._lookup.size})"


def partition_graph(graph: "CCGraph", shards: int) -> GraphPartition:
    """Balanced edge-cut partition of *graph* into *shards* shards.

    Deterministic: sorted live node ids are split into ``shards``
    contiguous near-equal blocks (``np.array_split`` semantics).  Ids in
    the gaps — and any id minted after this call — follow the
    ``id % shards`` fallback, so the partition remains a total function
    under later morphs.
    """
    if shards < 1:
        raise GraphError(f"shard count must be >= 1, got {shards}")
    ids = np.asarray(sorted(graph.nodes()), dtype=np.int64)
    size = int(ids[-1]) + 1 if ids.size else 0
    lookup = np.arange(size, dtype=np.int64) % shards
    for s, block in enumerate(np.array_split(ids, shards)):
        if block.size:
            lookup[block] = s
    return GraphPartition(shards, lookup)


# -- two-phase resolution ----------------------------------------------


def two_phase_commit_mask(
    graph: "CCGraph", partition: GraphPartition, nodes: "Iterable[int]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Reference two-phase (local greedy + halo exchange) commit rule.

    ``nodes`` is the batch's payload nodes in commit order.  Returns
    ``(final, local)`` boolean masks over batch positions: ``local`` is
    the phase-1 (intra-shard greedy) outcome, ``final`` the surviving
    commits after the phase-2 halo exchange.  ``final`` implies
    ``local``.  Raises :class:`GraphError` on dead or duplicate nodes,
    mirroring the reference conflict policy's validation.
    """
    nodes = list(nodes)
    m = len(nodes)
    local = np.zeros(m, dtype=bool)
    final = np.zeros(m, dtype=bool)
    seen: set[int] = set()
    locally_committed: dict[int, int] = {}  # node -> owning shard
    for i, node in enumerate(nodes):
        if not isinstance(node, (int, np.integer)) or node not in graph:
            raise GraphError(f"batch node {node!r} is not a live node")
        if node in seen:
            raise GraphError(f"node {node} appears twice in batch")
        seen.add(node)
        s = partition.shard_of(node)
        if all(
            locally_committed.get(b, -1) != s for b in graph.neighbors(node)
        ):
            local[i] = True
            locally_committed[node] = s
    survivors: dict[int, int] = {}  # node -> owning shard
    for i, node in enumerate(nodes):
        if not local[i]:
            continue
        s = partition.shard_of(node)
        if all(
            survivors.get(b, s) == s for b in graph.neighbors(node)
        ):
            final[i] = True
            survivors[node] = s
    return final, local
