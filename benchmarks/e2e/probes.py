"""Micro-probes: direct calls into one layer on the workload's own input.

Each probe calls a layer's public function on the benchmarked input at
the batch size the workload actually ran (its measured mean ``m``), so
both variants of a layer (scalar walk and array kernel) are visible
whatever the default path is.  A probe returns ``None`` when it does not
apply to the input (no explicit CC graph behind an app) and raises
``ImportError``/``AttributeError`` when its function is gone; the caller
reports either as 0 and never fails the run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_SECONDS = 0.1


def _median_seconds(call, after=None, budget: float = PROBE_SECONDS) -> float:
    """Median wall time of ``call()`` over *budget* seconds (>= 3 calls);
    ``after(result)`` restores state outside the timed region."""
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = call()
        samples.append(time.perf_counter() - t0)
        if after is not None:
            after(out)
    return statistics.median(samples)


class ProbeContext:
    """What the probes share: the input, a conflict batch and its operator."""

    def __init__(self, config, source, workset_size: int, mean_m: int, seed: int):
        from repro.graph.ccgraph import CCGraph
        from repro.runtime.task import CallbackOperator, Task

        self.source = source
        self.rng = np.random.default_rng([seed, 0xB47C])
        self.workset_size = max(1, workset_size)
        self.m = max(1, min(mean_m, self.workset_size))
        self.graph = source if isinstance(source, CCGraph) else None
        if self.graph is not None:
            graph = self.graph
            nodes = np.asarray(graph.nodes())
            picks = self.rng.choice(nodes, size=min(self.m, len(nodes)), replace=False)
            self.batch = [Task(payload=int(node)) for node in picks]
            self.operator = CallbackOperator(
                neighborhood=lambda task: graph.neighbors(task.payload),
                apply=lambda task: [],
            )
        else:
            from repro.apps.catalog import workload_from_input

            app = workload_from_input(config.workload.partition(":")[0], source, seed=seed)
            self.batch = app.workset.take(self.m, self.rng)
            self.operator = app.operator


def _take_us(workset_cls, ctx: ProbeContext) -> float:
    from repro.runtime.task import Task

    workset = workset_cls()
    workset.add_all([Task(payload=i) for i in range(ctx.workset_size)])
    return 1e6 * _median_seconds(
        lambda: workset.take(ctx.m, ctx.rng), after=workset.add_all
    )


def workset_random_take_us(ctx):
    from repro.runtime.workset import RandomWorkset

    return _take_us(RandomWorkset, ctx)


def active_set_take_us(ctx):
    from repro.runtime.active_set import ActiveSet

    return _take_us(ActiveSet, ctx)


def _resolve_us(policy, method: str, ctx: ProbeContext) -> float:
    resolve = getattr(policy, method)
    return 1e6 * _median_seconds(lambda: resolve(ctx.batch, ctx.operator))


def explicit_resolve_us(ctx, method="resolve"):
    if ctx.graph is None:
        return None
    from repro.runtime.conflict import ExplicitGraphPolicy

    return _resolve_us(ExplicitGraphPolicy(ctx.graph), method, ctx)


def explicit_resolve_fast_us(ctx):
    return explicit_resolve_us(ctx, "resolve_fast")


def itemlock_resolve_us(ctx, method="resolve"):
    from repro.runtime.conflict import ItemLockPolicy

    return _resolve_us(ItemLockPolicy(), method, ctx)


def itemlock_resolve_fast_us(ctx):
    return itemlock_resolve_us(ctx, "resolve_fast")


def kernels_commit_mask_us(ctx):
    if ctx.graph is None:
        return None
    from repro.runtime.kernels import greedy_commit_mask_from_slots

    snapshot = ctx.graph.csr()
    index = snapshot.index_of
    m = len(ctx.batch)
    pos = np.full(snapshot.num_nodes, -1, dtype=np.int64)
    pos[[index[task.payload] for task in ctx.batch]] = np.arange(m, dtype=np.int64)
    u, v = snapshot.edge_list
    pu, pv = pos[u], pos[v]
    both = np.flatnonzero((pu >= 0) & (pv >= 0))
    own, nbr = np.maximum(pu[both], pv[both]), np.minimum(pu[both], pv[both])
    return 1e6 * _median_seconds(
        lambda: greedy_commit_mask_from_slots(own, nbr, m, checked=False)
    )


def kernels_lock_mask_us(ctx):
    from repro.runtime.kernels import greedy_lock_mask

    codes: dict = {}
    flat: "list[int]" = []
    ptr = np.zeros(len(ctx.batch) + 1, dtype=np.int64)
    for i, task in enumerate(ctx.batch):
        for item in set(ctx.operator.neighborhood(task)):
            flat.append(codes.setdefault(item, len(codes)))
        ptr[i + 1] = len(flat)
    items = np.asarray(flat, dtype=np.int64)
    return 1e6 * _median_seconds(
        lambda: greedy_lock_mask(ptr, items, num_items=len(codes))
    )


class _Morpher:
    """One regenerating-workload commit per call: drop a node, wire a new
    one to 8 others.  Random picks are drawn up front so the timed region
    holds only ``CCGraph`` writes."""

    def __init__(self, graph, rng):
        self.graph = graph
        self.live = graph.nodes()
        self.draws = rng.integers(0, 2**31, size=(4096, 9)).tolist()
        self.calls = 0

    def __call__(self, _=None) -> None:
        draw = self.draws[self.calls % len(self.draws)]
        self.calls += 1
        graph, live = self.graph, self.live
        j = draw[0] % len(live)
        live[j], live[-1] = live[-1], live[j]
        graph.remove_node(live.pop())
        new = graph.add_node()
        for x in draw[1:]:
            graph.add_edge(new, live[x % len(live)])
        live.append(new)


def graph_morph_us_per_op(ctx):
    if ctx.graph is None:
        return None
    return 1e6 * _median_seconds(_Morpher(ctx.graph.copy(), ctx.rng))


def graph_snapshot_cold_ms(ctx):
    if ctx.graph is None:
        return None
    return 1e3 * _median_seconds(ctx.graph.snapshot)


def graph_delta_refresh_ms(ctx):
    if ctx.graph is None:
        return None
    graph = ctx.graph.copy()
    graph.conflict_view()  # cold build stays outside the timed refreshes
    return 1e3 * _median_seconds(graph.conflict_view, after=_Morpher(graph, ctx.rng))


#: metric name -> probe
PROBES = {
    "probe.workset.random_take_us": workset_random_take_us,
    "probe.active_set.take_us": active_set_take_us,
    "probe.conflict.explicit_resolve_us": explicit_resolve_us,
    "probe.conflict.explicit_resolve_fast_us": explicit_resolve_fast_us,
    "probe.conflict.itemlock_resolve_us": itemlock_resolve_us,
    "probe.conflict.itemlock_resolve_fast_us": itemlock_resolve_fast_us,
    "probe.kernels.commit_mask_us": kernels_commit_mask_us,
    "probe.kernels.lock_mask_us": kernels_lock_mask_us,
    "probe.graph.morph_us_per_op": graph_morph_us_per_op,
    "probe.graph.snapshot_cold_ms": graph_snapshot_cold_ms,
    "probe.graph.delta_refresh_ms": graph_delta_refresh_ms,
}


def run_probes(config, source, workset_size: int, mean_m: int, seed: int):
    """Run every probe; returns ``(values, gone)`` where *gone* lists the
    probes whose function no longer exists."""
    values: "dict[str, float]" = {name: 0.0 for name in PROBES}
    gone: "list[str]" = []
    try:
        ctx = ProbeContext(config, source, workset_size, mean_m, seed)
    except (ImportError, AttributeError):
        return values, sorted(PROBES)
    for name, probe in PROBES.items():
        try:
            value = probe(ctx)
        except (ImportError, AttributeError):
            gone.append(name)
            continue
        if value is not None:
            values[name] = value
    return values, gone
