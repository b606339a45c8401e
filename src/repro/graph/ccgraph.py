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
* **Bulk construction, one int object per node id.** :meth:`from_edges`
  fills every neighbour set in one pass over the edges, in the order a
  per-edge :meth:`add_edge` loop would, but stores the graph's own id
  ints rather than the caller's endpoint objects: a G(n, M) input keeps
  ``n`` distinct ints in its adjacency, not one per edge endpoint.
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

__all__ = ["CCGraph", "GraphSnapshot"]


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
        scan every edge (the partitioner).
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
        # optional morph observer (set_morph_hook): one is-None test per
        # mutation when unset.  The workload-trace recorder uses it to
        # attribute graph morphs to the committing task.
        self._morph_hook: "object | None" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[tuple[int, int]]
    ) -> "CCGraph":
        """Build a graph with nodes ``0..num_nodes-1`` and the given edges.

        Equal to :meth:`add_node` ``num_nodes`` times and then
        :meth:`add_edge` per edge, down to each neighbour set's iteration
        order (every set gets the same insertions in the same order) and
        ``version == num_nodes + distinct edges``; the errors are the
        same too.  Built in bulk, and each set stores the graph's own
        node-id ints, not the caller's endpoint objects.
        """
        g = cls()
        ids = list(range(num_nodes))
        adj = g._adj = {u: set() for u in ids}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on node {u} is not a conflict")
            # membership before indexing ids, so that -1 cannot wrap
            au = adj.get(u)
            av = adj.get(v)
            if au is None:
                raise NodeNotFoundError(u)
            if av is None:
                raise NodeNotFoundError(v)
            au.add(ids[v])
            av.add(ids[u])
        g._next_id = len(ids)
        g._num_edges = sum(map(len, adj.values())) // 2
        g._version = len(ids) + g._num_edges
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
        return cls.from_edges(
            len(nodes), ((index[u], index[v]) for u, v in nxg.edges() if u != v)
        )

    def add_node(self, data: object | None = None) -> int:
        """Create an isolated node, returning its fresh id."""
        nid = self._next_id
        self._next_id += 1
        self._adj[nid] = set()
        self._version += 1
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
        if self._morph_hook is not None:
            self._morph_hook("remove_edge", u, v)

    def remove_node(self, u: int) -> None:
        """Remove node *u* and all incident edges (a task commit)."""
        neigh = self._adj.get(u)
        if neigh is None:
            raise NodeNotFoundError(u)
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

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (for tests and inspection)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return f"CCGraph(n={self.num_nodes}, m={self.num_edges}, d={self.average_degree:.3g})"
