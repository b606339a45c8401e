"""End-to-end benchmark gate for the process-backed shard runtime.

The sharded commit order splits each round's resolution into per-shard
phase-1 greedy walks plus a cut-edge halo exchange; the
:func:`repro.runtime.run_sharded` runtime ships the phase-1 walks to one
worker process per shard.  On a multi-core box that parallelism must pay
for its pipe round-trips: this gate runs a 1M-node power-law replay case
(heavy-tailed conflict degrees — the irregular-program shape the paper
targets) through the **single-worker** in-process engine and through the
**4-shard worker pool**, demands step-stat bit-parity between the two
(they are the same computation — the differential suite's guarantee,
re-checked here as the precondition for comparing clocks), writes the
scaling curve over 1/2/4/8 shards to ``BENCH_shard.json`` at the repo
root, and fails when the pool's end-to-end speedup over the
single-worker run drops below :data:`GATE_MIN_SPEEDUP`.

The gate only *asserts* on hosts with at least 4 CPUs (CI's runners);
smaller boxes — including single-core dev containers — still run
everything and record ``gate_enforced: false``, so the artifact is
always produced.

Both legs run the default path: the single-worker baseline resolves with
the in-process array kernels, which is the engine the pool has to beat
(ROADMAP: "Sharding: measure it honestly", step 1).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.config import RunConfig
from repro.graph.ccgraph import CCGraph
from repro.runtime.sharded import run_sharded

GATE_MIN_SPEEDUP = 2.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_shard.json"

N = 1_000_000
AVG_DEGREE = 10
FIXED_M = 32_768
STEPS = 30
GATE_SHARDS = 4
CURVE_SHARDS = (1, 2, 4, 8)
GRAPH_SEED, ENGINE_SEED = 17, 3
POWER = 0.8  # weight exponent of the degree-skew distribution


def _powerlaw_graph(n: int, avg_degree: int, seed: int) -> CCGraph:
    """Heavy-tailed random graph built from vectorised NumPy sampling.

    Both endpoints of every edge are drawn from a Zipf-like weight
    ``w_i ∝ (i+1)^-POWER``, giving hub nodes power-law-shaped degrees.
    The pure-Python preferential-attachment generator
    (:func:`repro.graph.generators.powerlaw_graph`) would take minutes
    at this scale; here only the final edge insertion is a Python loop.
    """
    rng = np.random.default_rng(seed)
    target = n * avg_degree // 2
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** -POWER
    weights /= weights.sum()
    # oversample, then drop self-loops and duplicates
    draw = int(target * 1.4)
    u = rng.choice(n, size=draw, p=weights)
    v = rng.choice(n, size=draw, p=weights)
    keep = u != v
    pairs = np.stack([np.minimum(u, v)[keep], np.maximum(u, v)[keep]], axis=1)
    pairs = np.unique(pairs, axis=0)
    pairs = pairs[rng.permutation(len(pairs))[:target]]
    graph = CCGraph.from_edges(n, [])
    add_edge = graph.add_edge
    for a, b in pairs.tolist():
        add_edge(a, b)
    return graph


def _config(shards: int) -> RunConfig:
    return RunConfig(
        workload="replay",
        controller="fixed",
        m=FIXED_M,
        order=f"sharded:{shards}",
        max_steps=STEPS,
    )


def _timed_run(graph: CCGraph, shards: int, pool: bool):
    """One end-to-end run (pool spawn included); returns (seconds, steps)."""
    t0 = time.perf_counter()
    if pool:
        result = run_sharded(_config(shards), graph, seed=ENGINE_SEED)
    else:
        from repro.api import run as api_run

        result = api_run(_config(shards), graph=graph, seed=ENGINE_SEED)
    elapsed = time.perf_counter() - t0
    return elapsed, [s.as_dict() for s in result.steps]


def _best(graph: CCGraph, shards: int, pool: bool, repeats: int = 2):
    """Least-noise estimate: best wall-clock over identically seeded runs."""
    best, steps = float("inf"), None
    for _ in range(repeats):
        elapsed, run_steps = _timed_run(graph, shards, pool)
        assert steps is None or run_steps == steps  # repeats are identical
        steps = run_steps
        best = min(best, elapsed)
    return best, steps


def test_shard_speedup_gate():
    """4-shard pool >= 2x the single-worker engine, end to end."""
    graph = _powerlaw_graph(N, AVG_DEGREE, GRAPH_SEED)
    cpus = os.cpu_count() or 1
    gate_enforced = cpus >= GATE_SHARDS

    single_secs, single_steps = _best(graph, GATE_SHARDS, pool=False)
    pool_secs, pool_steps = _best(graph, GATE_SHARDS, pool=True)
    # bit-parity precondition: the pool ran the same computation
    assert pool_steps == single_steps

    scaling = []
    for shards in CURVE_SHARDS:
        if shards == GATE_SHARDS:
            secs, steps = pool_secs, pool_steps
        else:
            secs, steps = _timed_run(graph, shards, pool=shards > 1)
        scaling.append(
            {
                "shards": shards,
                "seconds": secs,
                "committed": sum(s["committed"] for s in steps),
                "aborted": sum(s["aborted"] for s in steps),
            }
        )

    speedup = single_secs / pool_secs
    BENCH_JSON.write_text(
        json.dumps(
            {
                "case": {
                    "graph": "powerlaw (vectorised Zipf endpoints)",
                    "n": N,
                    "avg_degree": AVG_DEGREE,
                    "m": FIXED_M,
                    "steps": STEPS,
                    "workload": "replay",
                },
                "cpu_count": cpus,
                "gate_enforced": gate_enforced,
                "gate_min_speedup": GATE_MIN_SPEEDUP,
                "single_worker_seconds": single_secs,
                "pool_seconds": pool_secs,
                "speedup": speedup,
                "scaling": scaling,
                "committed_total": sum(s["committed"] for s in single_steps),
                "aborted_total": sum(s["aborted"] for s in single_steps),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    if gate_enforced:
        assert speedup >= GATE_MIN_SPEEDUP, (
            f"shard pool regressed: {speedup:.2f}x < {GATE_MIN_SPEEDUP}x "
            f"(single {single_secs:.2f}s, {GATE_SHARDS}-shard pool "
            f"{pool_secs:.2f}s for {STEPS} steps)"
        )
