"""The computations/conflicts (CC) graph.

The paper's model (§2) views an optimistically-parallelised irregular
algorithm as a *dynamic* undirected graph ``G_t = (V_t, E_t)``: nodes are
pending computations (tasks) and edges are run-time conflicts between them.
Executing a task removes its node; the application operator may then morph
the neighbourhood (add nodes, add/remove edges) — e.g. Delaunay refinement
retriangulates a cavity, creating new bad triangles.

:class:`CCGraph` is the mutable substrate shared by the analytic model, the
optimistic runtime and the applications.  Design points:

* **Integer node ids** handed out by an internal counter, never reused, so
  task identity is stable across morphs and the runtime can log per-task
  histories.
* **Set-based adjacency** for O(1) expected edge updates and O(deg) node
  removal — the access pattern of graph morphs is pointer-chasing, not
  array-scannable, which is exactly why these algorithms are "irregular".
* **Frozen CSR snapshots** (:meth:`snapshot`) for the analytic layer: the
  Monte-Carlo estimators sample hundreds of thousands of permutations of a
  *static* graph, and a packed CSR + vectorised NumPy walk is ~50× faster
  than chasing Python sets.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

__all__ = ["CCGraph", "GraphSnapshot", "ConflictDeltaView"]


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable CSR view of a :class:`CCGraph` at one instant.

    Attributes
    ----------
    node_ids:
        ``int64[n]`` — the graph's node ids in index order.
    indptr, indices:
        standard CSR adjacency over *indices into* ``node_ids`` (not raw
        ids), so downstream vectorised code works on a dense ``0..n-1``
        universe.
    """

    node_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0] // 2)

    @property
    def degrees(self) -> np.ndarray:
        """``int64[n]`` degree of each node in index order."""
        return np.diff(self.indptr)

    @property
    def average_degree(self) -> float:
        """Mean degree ``d = 2|E|/|V|`` (0 for the empty graph)."""
        n = self.num_nodes
        return float(self.indices.shape[0]) / n if n else 0.0

    def neighbors(self, index: int) -> np.ndarray:
        """Neighbour *indices* of node *index* (CSR slice view)."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    @cached_property
    def index_of(self) -> dict[int, int]:
        """Node id → CSR index lookup (built lazily, cached)."""
        return {int(nid): i for i, nid in enumerate(self.node_ids)}

    @cached_property
    def ids_dense(self) -> bool:
        """True when node ids coincide with CSR indices ``0..n-1``.

        Holds for every graph that never had a node removed (generators,
        stationary workloads) and lets the fast path skip the id → index
        translation entirely.
        """
        n = self.num_nodes
        return bool(np.array_equal(self.node_ids, np.arange(n, dtype=np.int64)))

    @cached_property
    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` index pairs, one row per undirected edge, ``u < v``.

        Built once per snapshot from the CSR arrays, for consumers that
        scan every edge (the partitioner, :class:`ConflictDeltaView`).
        """
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return src[keep], self.indices[keep]


class CCGraph:
    """Dynamic undirected computations/conflicts graph.

    Self-loops are rejected (a task never conflicts with itself in the
    model); parallel edges collapse silently (adjacency is a set).  Optional
    per-node payloads let applications attach their task state.
    """

    __slots__ = (
        "_adj",
        "_data",
        "_next_id",
        "_num_edges",
        "_version",
        "_csr",
        "_delta",
        "_morph_hook",
    )

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._data: dict[int, object] = {}
        self._next_id = 0
        self._num_edges = 0
        # topology version counter + memoised CSR view keyed on it; lets
        # the engine's fast path reuse one snapshot across steps when the
        # graph does not morph (stationary workloads never rebuild).
        self._version = 0
        self._csr: "tuple[int, GraphSnapshot] | None" = None
        # incrementally-maintained conflict projection; created on first
        # conflict_view() call and fed by the mutation hooks below (one
        # is-None test per mutation when no view exists).
        self._delta: "ConflictDeltaView | None" = None
        # optional morph observer (set_morph_hook); same one-is-None-test
        # cost model as _delta.  The workload-trace recorder uses it to
        # attribute graph morphs to the committing task.
        self._morph_hook: "object | None" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[tuple[int, int]]
    ) -> "CCGraph":
        """Build a graph with nodes ``0..num_nodes-1`` and the given edges."""
        g = cls()
        for _ in range(num_nodes):
            g.add_node()
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "CCGraph":
        """Import an undirected :class:`networkx.Graph`.

        Arbitrary node labels are remapped to ``0..n-1`` (sorted by their
        repr for determinism); self-loops are dropped (a task cannot
        conflict with itself in the model).
        """
        nodes = sorted(nxg.nodes(), key=repr)
        index = {node: i for i, node in enumerate(nodes)}
        g = cls.from_edges(len(nodes), [])
        for u, v in nxg.edges():
            if u != v:
                g.add_edge(index[u], index[v])
        return g

    def add_node(self, data: object | None = None) -> int:
        """Create an isolated node, returning its fresh id."""
        nid = self._next_id
        self._next_id += 1
        self._adj[nid] = set()
        self._version += 1
        if self._delta is not None:
            self._delta._record_add_node(nid)
        if self._morph_hook is not None:
            self._morph_hook("add_node", nid)
        if data is not None:
            self._data[nid] = data
        return nid

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected conflict edge ``{u, v}`` (idempotent)."""
        if u == v:
            raise GraphError(f"self-loop on node {u} is not a conflict")
        au = self._adj.get(u)
        av = self._adj.get(v)
        if au is None:
            raise NodeNotFoundError(u)
        if av is None:
            raise NodeNotFoundError(v)
        if v not in au:
            au.add(v)
            av.add(u)
            self._num_edges += 1
            self._version += 1
            if self._delta is not None:
                self._delta._record_add_edge(u, v)
            if self._morph_hook is not None:
                self._morph_hook("add_edge", u, v)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}``; raises if absent."""
        au = self._adj.get(u)
        av = self._adj.get(v)
        if au is None:
            raise NodeNotFoundError(u)
        if av is None:
            raise NodeNotFoundError(v)
        if v not in au:
            raise EdgeNotFoundError(u, v)
        au.discard(v)
        av.discard(u)
        self._num_edges -= 1
        self._version += 1
        if self._delta is not None:
            self._delta._record_remove_edge()
        if self._morph_hook is not None:
            self._morph_hook("remove_edge", u, v)

    def remove_node(self, u: int) -> None:
        """Remove node *u* and all incident edges (a task commit)."""
        neigh = self._adj.get(u)
        if neigh is None:
            raise NodeNotFoundError(u)
        if self._delta is not None:
            self._delta._record_remove_node(u, len(neigh))
        for v in neigh:
            self._adj[v].discard(u)
        self._num_edges -= len(neigh)
        del self._adj[u]
        self._data.pop(u, None)
        self._version += 1
        if self._morph_hook is not None:
            self._morph_hook("remove_node", u)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, u: Hashable) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def version(self) -> int:
        """Monotone topology version: bumps on every structural mutation."""
        return self._version

    def set_morph_hook(self, hook) -> None:
        """Install (or, with ``None``, remove) a morph observer.

        *hook* is called after every structural mutation as
        ``hook("add_node", nid)``, ``hook("add_edge", u, v)``,
        ``hook("remove_edge", u, v)`` or ``hook("remove_node", u)``.
        At most one hook is active at a time; installing over an existing
        one raises so two observers cannot silently drop each other's
        morphs.  The hook must not mutate the graph.
        """
        if hook is not None and self._morph_hook is not None:
            raise GraphError("a morph hook is already installed on this graph")
        self._morph_hook = hook

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def average_degree(self) -> float:
        """Mean degree ``d = 2|E|/|V|`` (0 for the empty graph)."""
        n = len(self._adj)
        return 2.0 * self._num_edges / n if n else 0.0

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the conflict edge ``{u, v}`` is present."""
        au = self._adj.get(u)
        return au is not None and v in au

    def degree(self, u: int) -> int:
        """Number of conflicts incident to node *u*."""
        neigh = self._adj.get(u)
        if neigh is None:
            raise NodeNotFoundError(u)
        return len(neigh)

    def neighbors(self, u: int) -> frozenset[int]:
        """Immutable view of *u*'s neighbourhood (safe during mutation)."""
        neigh = self._adj.get(u)
        if neigh is None:
            raise NodeNotFoundError(u)
        return frozenset(neigh)

    def nodes(self) -> list[int]:
        """Current node ids, in insertion order.

        Removing a node keeps the order of the rest and :meth:`add_node`
        appends, so — ids being handed out by a counter and never
        reused — insertion order is ascending-id order for every graph
        built through :meth:`add_node` (all generators, :meth:`from_edges`,
        :meth:`copy`).  The one exception is :meth:`induced_subgraph`,
        which keeps the ids but lists them in a set's order.
        """
        return list(self._adj)

    def edges(self) -> list[tuple[int, int]]:
        """Current edges as ``(min, max)`` pairs, each reported once."""
        return [(u, v) for u, vs in self._adj.items() for v in vs if u < v]

    def get_data(self, u: int) -> object | None:
        """Per-node payload (``None`` when unset)."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        return self._data.get(u)

    def set_data(self, u: int, data: object) -> None:
        """Attach a payload to node *u*."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        self._data[u] = data

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def copy(self) -> "CCGraph":
        """Deep-copy topology and shallow-copy payload references."""
        g = CCGraph()
        g._adj = {u: set(vs) for u, vs in self._adj.items()}
        g._data = dict(self._data)
        g._next_id = self._next_id
        g._num_edges = self._num_edges
        return g

    def induced_subgraph(self, nodes: Iterable[int]) -> "CCGraph":
        """Subgraph induced by *nodes*; ids are preserved, :meth:`nodes` order is not."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise NodeNotFoundError(min(missing))
        g = CCGraph()
        g._adj = {u: self._adj[u] & keep for u in keep}
        g._data = {u: self._data[u] for u in keep if u in self._data}
        g._next_id = self._next_id
        g._num_edges = sum(len(vs) for vs in g._adj.values()) // 2
        return g

    def snapshot(self) -> GraphSnapshot:
        """Freeze the current topology into a CSR :class:`GraphSnapshot`."""
        adj = self._adj
        n = len(adj)
        node_ids = np.fromiter(adj.keys(), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
        np.cumsum(degrees, out=indptr[1:])
        # neighbour *ids*, all rows in one pass
        indices = np.fromiter(
            chain.from_iterable(adj.values()), dtype=np.int64, count=int(indptr[-1])
        )
        if not np.array_equal(node_ids, np.arange(n, dtype=np.int64)):
            # ids with holes (or out of order): translate to row indices
            order = np.argsort(node_ids, kind="stable")
            indices = order[np.searchsorted(node_ids, indices, sorter=order)]
        return GraphSnapshot(node_ids=node_ids, indptr=indptr, indices=indices)

    def csr(self) -> GraphSnapshot:
        """Memoised CSR view, rebuilt only after a structural mutation.

        The engine's fast path calls this on every step whose graph is
        unchanged since the step before: a version check plus a cache
        hit, so on stationary workloads the CSR build cost amortises to
        zero, and a graph that morphs every step never pays it.
        """
        cached = self._csr
        if cached is not None and cached[0] == self._version:
            return cached[1]
        snap = self.snapshot()
        self._csr = (self._version, snap)
        return snap

    def conflict_view(self) -> "ConflictDeltaView":
        """Incrementally-maintained conflict projection of this graph.

        Unlike :meth:`csr`, which throws its snapshot away on *any*
        mutation, the returned view absorbs the morphs the engine's
        workloads actually perform — node removals (commits) and node/edge
        additions (new work) — in O(delta), rebuilding only on edge
        removals or when compaction pays (see
        :meth:`ConflictDeltaView.refresh`).  The first call builds the
        view and registers it with the mutation hooks; later calls
        refresh and return the same instance.
        """
        view = self._delta
        if view is None:
            view = ConflictDeltaView(self)
            self._delta = view
        view.refresh()
        return view

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (for tests and inspection)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return f"CCGraph(n={self.num_nodes}, m={self.num_edges}, d={self.average_degree:.3g})"


class ConflictDeltaView:
    """Tombstoned slot projection of a :class:`CCGraph`, updated in O(delta).

    The engine's fast conflict path needs two things per step: a map from
    task payloads (node ids) to a dense slot universe, and the edge list
    over those slots.  :meth:`CCGraph.csr` delivers both but rebuilds the
    whole snapshot after *any* mutation — on morphing workloads that is a
    full Python adjacency walk every step.  This view keeps both
    structures alive across morphs instead:

    * ``id → slot`` is one ``int64`` array indexed by node id (ids are
      never reused, so it only ever grows); removing a node writes a
      ``-1`` tombstone, adding one appends a fresh slot;
    * added edges accumulate in pending lists, consolidated into the edge
      arrays lazily on :meth:`refresh`;
    * removed nodes leave their incident edges in place as *stale* edges.
      Staleness is sound because every stale edge has a tombstoned
      endpoint: batch payloads are live nodes, so a stale edge can never
      project onto two batch slots and never changes a resolution.  Only
      :meth:`CCGraph.remove_edge` — which disconnects two *live* nodes —
      invalidates the edge arrays, and it marks the view dirty for a full
      rebuild.

    Rebuilds also trigger when compaction pays: once stale edges are the
    majority of the arrays, or tombstoned slots dominate the slot
    universe, one rebuild is cheaper than dragging the garbage through
    every step's projection.  :attr:`rebuilds` counts them — on morphing
    workloads it grows logarithmically, not per step (the step benchmark
    asserts this).

    The morph-fuzz suite holds the view to full-snapshot equality after
    arbitrary mutation sequences.
    """

    __slots__ = (
        "_graph",
        "_id_to_slot",
        "_edge_u",
        "_edge_v",
        "_pending_u",
        "_pending_v",
        "num_slots",
        "_live",
        "_stale",
        "_dirty",
        "rebuilds",
    )

    def __init__(self, graph: CCGraph):
        self._graph = graph
        self._pending_u: list[int] = []
        self._pending_v: list[int] = []
        self._dirty = True  # first refresh() builds everything
        self.rebuilds = 0

    # -- mutation hooks (called by CCGraph, mutation-time state) --------
    def _record_add_node(self, nid: int) -> None:
        if self._dirty:
            return
        table = self._id_to_slot
        if nid >= table.shape[0]:
            grown = np.full(max(2 * table.shape[0], nid + 1), -1, dtype=np.int64)
            grown[: table.shape[0]] = table
            self._id_to_slot = table = grown
        table[nid] = self.num_slots
        self.num_slots += 1
        self._live += 1

    def _record_remove_node(self, nid: int, degree: int) -> None:
        # called *before* the adjacency is torn down, so *degree* counts
        # the edges that are about to go stale
        if self._dirty:
            return
        self._id_to_slot[nid] = -1
        self._live -= 1
        self._stale += degree

    def _record_add_edge(self, u: int, v: int) -> None:
        # both endpoints are live (CCGraph validated them), so their
        # slots are current; consolidation into the arrays is deferred
        if self._dirty:
            return
        table = self._id_to_slot
        self._pending_u.append(int(table[u]))
        self._pending_v.append(int(table[v]))

    def _record_remove_edge(self) -> None:
        # the one mutation that can leave a both-endpoints-live edge in
        # the arrays: no O(delta) story, rebuild on next refresh
        self._dirty = True

    # -- maintenance ----------------------------------------------------
    def refresh(self) -> None:
        """Bring the view up to date: consolidate, compact, or no-op."""
        if self._dirty:
            self._rebuild()
            return
        total_edges = self._edge_u.shape[0] + len(self._pending_u)
        if 2 * self._stale > total_edges or self.num_slots > 2 * self._live + 64:
            self._rebuild()
            return
        if self._pending_u:
            pend_u = np.asarray(self._pending_u, dtype=np.int64)
            pend_v = np.asarray(self._pending_v, dtype=np.int64)
            self._edge_u = np.concatenate([self._edge_u, pend_u])
            self._edge_v = np.concatenate([self._edge_v, pend_v])
            self._pending_u.clear()
            self._pending_v.clear()

    def _rebuild(self) -> None:
        graph = self._graph
        snap = graph.snapshot()
        n = snap.num_nodes
        table = np.full(max(graph._next_id, 1), -1, dtype=np.int64)
        table[snap.node_ids] = np.arange(n, dtype=np.int64)
        self._id_to_slot = table
        self._edge_u, self._edge_v = snap.edge_list
        self._pending_u.clear()
        self._pending_v.clear()
        self.num_slots = n
        self._live = n
        self._stale = 0
        self._dirty = False
        self.rebuilds += 1

    # -- queries (valid after refresh) ----------------------------------
    def project(self, payloads: np.ndarray) -> "np.ndarray | None":
        """Slots of *payloads* (int array of node ids), or ``None``.

        ``None`` means at least one payload is out of range or
        tombstoned (a dead node) — the caller falls back to the
        reference walk, which raises the exact domain error.
        """
        table = self._id_to_slot
        if payloads.shape[0] == 0:
            return payloads.astype(np.int64, copy=False)
        if int(payloads.min()) < 0 or int(payloads.max()) >= table.shape[0]:
            return None
        slots = table[payloads]
        if int(slots.min()) < 0:
            return None
        return slots

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` slot pairs, one per edge, stale edges included.

        Consumers must mask against live batch slots (projection yields
        ``-1`` for every stale endpoint), exactly as the fast path's
        batch filter already does.
        """
        return self._edge_u, self._edge_v
