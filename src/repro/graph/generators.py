"""Generators for the CC-graph families used in the paper's analysis.

Three families come straight from the text:

* :func:`union_of_cliques` — the worst-case graph ``K_d^n`` of Remark 2 /
  Thm. 2: ``s = n/(d+1)`` disjoint cliques of size ``d+1``.
* :func:`clique_plus_isolated` — Example 1's ``K_{n²} ∪ D_n`` (one huge
  clique plus isolated nodes), the graph whose maximal-IS size wildly
  overestimates exploitable parallelism.
* :func:`gnm_random` — "edges chosen uniformly at random until desired
  degree is reached" (Fig. 2's random graph), i.e. the G(n, M) model with
  ``M = n·d/2``.

The rest (regular, grid, path/cycle, geometric, power-law) provide degree
profiles for the theory tests (Thm. 2 dominance must hold for *any* graph
of equal ``n`` and ``d``) and for unfriendly-seating cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeneratorError
from repro.graph.ccgraph import CCGraph
from repro.utils.rng import ensure_rng

__all__ = [
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "union_of_cliques",
    "kdn_worst_case",
    "clique_plus_isolated",
    "gnm_random",
    "gnp_random",
    "random_regular",
    "random_geometric",
    "powerlaw_graph",
]


def empty_graph(n: int) -> CCGraph:
    """``n`` isolated nodes — a fully parallel CC graph."""
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    return CCGraph.from_edges(n, [])


def complete_graph(n: int) -> CCGraph:
    """``K_n`` — a fully serial CC graph."""
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    return CCGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> CCGraph:
    """Path ``P_n`` (the classic unfriendly-seating bench)."""
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    return CCGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> CCGraph:
    """Cycle ``C_n`` (unfriendly *theatre* seating)."""
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    if n < 3:
        return path_graph(n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return CCGraph.from_edges(n, edges)


def grid_graph(rows: int, cols: int) -> CCGraph:
    """``rows × cols`` 4-neighbour mesh (statistical-physics seating)."""
    if rows < 0 or cols < 0:
        raise GeneratorError(f"negative grid dimension ({rows}, {cols})")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return CCGraph.from_edges(rows * cols, edges)


def union_of_cliques(num_cliques: int, clique_size: int) -> CCGraph:
    """``num_cliques`` disjoint cliques of ``clique_size`` nodes each."""
    if num_cliques < 0:
        raise GeneratorError(f"negative clique count {num_cliques}")
    if clique_size < 1:
        raise GeneratorError(f"clique size must be >= 1, got {clique_size}")
    edges: list[tuple[int, int]] = []
    for k in range(num_cliques):
        base = k * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    return CCGraph.from_edges(num_cliques * clique_size, edges)


def kdn_worst_case(n: int, d: int) -> CCGraph:
    """The paper's ``K_d^n``: ``n`` nodes, average degree ``d``.

    Requires ``(d+1) | n`` (the paper's simplifying assumption in Thm. 3).
    """
    if n < 0 or d < 0:
        raise GeneratorError(f"invalid K_d^n parameters n={n}, d={d}")
    if d + 1 > max(n, 1):
        raise GeneratorError(f"degree d={d} impossible with n={n} nodes")
    if n % (d + 1) != 0:
        raise GeneratorError(f"K_d^n needs (d+1) | n; got n={n}, d={d}")
    return union_of_cliques(n // (d + 1), d + 1)


def clique_plus_isolated(clique_size: int, num_isolated: int) -> CCGraph:
    """A ``K_clique_size`` plus ``num_isolated`` disconnected nodes.

    Example 1 uses ``clique_size = n²`` and ``num_isolated = n``: every
    maximal independent set has size ``n + 1`` yet a uniform random choice
    of ``n + 1`` nodes contains ≈2 independent nodes in expectation.
    """
    if clique_size < 0 or num_isolated < 0:
        raise GeneratorError(
            f"negative sizes clique={clique_size}, isolated={num_isolated}"
        )
    edges = [
        (u, v) for u in range(clique_size) for v in range(u + 1, clique_size)
    ]
    return CCGraph.from_edges(clique_size + num_isolated, edges)


def gnm_random(n: int, avg_degree: float, seed=None) -> CCGraph:
    """G(n, M) with ``M = round(n·avg_degree/2)`` uniform distinct edges.

    This is Fig. 2's "random graph": edges drawn uniformly without
    replacement until the desired average degree is reached.
    """
    rng = ensure_rng(seed)
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    m = int(round(n * avg_degree / 2.0))
    max_edges = n * (n - 1) // 2
    if m < 0 or m > max_edges:
        raise GeneratorError(
            f"requested {m} edges but K_{n} has only {max_edges}"
        )
    if m == 0:
        return CCGraph.from_edges(n, [])
    # Sample edge codes without replacement from the triangular index space.
    # For the sparse regimes we use (m << max_edges), rejection batching is
    # far cheaper than materialising all C(n,2) codes.
    chosen: set[int] = set()
    while len(chosen) < m:
        need = m - len(chosen)
        for code in rng.integers(0, max_edges, size=max(64, 2 * need)).tolist():
            chosen.add(code)
            if len(chosen) == m:
                break
    # decode the triangular index in the set's iteration order: row u is
    # the largest with base(u) = u*(2n-u-1)/2 <= code; float sqrt first,
    # then integer fix-ups at row boundaries until no row moves
    codes = np.fromiter(chosen, dtype=np.int64, count=m)
    del chosen  # lowers the build's memory peak
    b = 2 * n - 1
    u = np.floor((b - np.sqrt(float(b * b) - 8.0 * codes)) / 2.0).astype(np.int64)
    while True:
        high = u * (b - u) // 2 > codes
        low = (u + 1 < n) & ((u + 1) * (b - u - 1) // 2 <= codes)
        if not (high.any() or low.any()):
            break
        u += low.astype(np.int64) - high
    v = codes - u * (b - u) // 2 + u + 1
    return CCGraph.from_edges(n, zip(u.tolist(), v.tolist()))


def gnp_random(n: int, p: float, seed=None) -> CCGraph:
    """Erdős–Rényi G(n, p) via geometric edge skipping (O(n + m))."""
    rng = ensure_rng(seed)
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    if not 0.0 <= p <= 1.0:
        raise GeneratorError(f"edge probability p={p} outside [0, 1]")
    if p == 0.0 or n < 2:
        return CCGraph.from_edges(n, [])
    if p == 1.0:
        return complete_graph(n)
    # Batagelj–Brandes skipping over the triangular edge enumeration.
    lp = math.log(1.0 - p)
    edges: list[tuple[int, int]] = []
    v = 1
    w = -1
    while v < n:
        lr = math.log(1.0 - rng.random())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return CCGraph.from_edges(n, edges)


def random_regular(n: int, d: int, seed=None, max_retries: int = 200) -> CCGraph:
    """Random ``d``-regular graph.

    For small degree (``d ≤ 6``) the classic configuration/pairing model
    with rejection is used; its success probability decays like
    ``exp(−(d²−1)/4)``, so for denser graphs we delegate to networkx's
    Steger–Wormald style generator, which succeeds w.h.p. at any degree.
    """
    rng = ensure_rng(seed)
    if n < 0 or d < 0:
        raise GeneratorError(f"invalid regular-graph parameters n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise GeneratorError(f"n·d must be even for a d-regular graph (n={n}, d={d})")
    if d >= n and n > 0:
        raise GeneratorError(f"degree d={d} impossible with n={n} nodes")
    if n == 0 or d == 0:
        return empty_graph(n)
    if d > 6:
        import networkx as nx

        nxg = nx.random_regular_graph(d, n, seed=int(rng.integers(0, 2**31 - 1)))
        return CCGraph.from_edges(n, nxg.edges())
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(max_retries):
        perm = rng.permutation(stubs)
        us, vs = perm[0::2], perm[1::2]
        if np.any(us == vs):
            continue
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        codes = lo * n + hi
        if np.unique(codes).shape[0] != codes.shape[0]:
            continue
        return CCGraph.from_edges(n, zip(lo.tolist(), hi.tolist()))
    raise GeneratorError(
        f"pairing model failed to produce a simple graph after {max_retries} tries "
        f"(n={n}, d={d})"
    )


def random_geometric(n: int, radius: float, seed=None) -> CCGraph:
    """Random geometric graph on the unit square.

    Conflicts-by-proximity mimic cavity overlaps in mesh refinement: two
    tasks conflict when their working regions intersect.
    """
    rng = ensure_rng(seed)
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    if radius < 0:
        raise GeneratorError(f"negative radius {radius}")
    pts = rng.random((n, 2))
    # Cell-bucket neighbour search keeps this O(n) for constant density.
    cell = max(radius, 1e-12)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(i)
    r2 = radius * radius
    edges: list[tuple[int, int]] = []
    for (cx, cy), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = buckets.get((cx + dx, cy + dy))
                if other is None:
                    continue
                for i in members:
                    for j in other:
                        if i < j:
                            diff = pts[i] - pts[j]
                            if diff[0] * diff[0] + diff[1] * diff[1] <= r2:
                                edges.append((i, j))
    g = CCGraph.from_edges(n, edges)
    for i in range(n):
        g.set_data(i, (float(pts[i, 0]), float(pts[i, 1])))
    return g


def powerlaw_graph(n: int, attach: int, seed=None) -> CCGraph:
    """Barabási–Albert preferential attachment (skewed conflict degrees).

    Each new node attaches to ``attach`` existing nodes chosen with
    probability proportional to degree (repeated-endpoint sampling).
    """
    rng = ensure_rng(seed)
    if n < 0:
        raise GeneratorError(f"negative node count {n}")
    if attach < 1:
        raise GeneratorError(f"attachment count must be >= 1, got {attach}")
    if n <= attach:
        return complete_graph(n)
    g = complete_graph(attach + 1)
    for _ in range(attach + 1, n):
        g.add_node()
    # endpoint multiset for preferential sampling
    endpoints: list[int] = []
    for u, v in g.edges():
        endpoints.extend((u, v))
    for u in range(attach + 1, n):
        targets: set[int] = set()
        while len(targets) < attach:
            if endpoints:
                t = endpoints[int(rng.integers(0, len(endpoints)))]
            else:  # pragma: no cover - only if attach+1 == 1
                t = int(rng.integers(0, u))
            if t != u:
                targets.add(t)
        for t in targets:
            g.add_edge(u, t)
            endpoints.extend((u, t))
    return g
