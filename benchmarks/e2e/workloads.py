"""The five benchmark workloads: seeded inputs, configs and output checks.

Every workload drives only the default public path —
``repro.run(RunConfig(...), graph=input)``, or ``run_sharded`` for the
pool — with ``engine``/``select`` never set.  Inputs are a pure function
of ``--seed``; the program under test only ever sees the generated
input.  Sizes are chosen so one run does the same amount of work whatever
the seed (see README.md, "Sizing"), because the harness is accepted on
how little its numbers move between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import RunConfig, run
from repro.apps.catalog import build_app_input
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import gnm_random
from repro.runtime.sharded import run_sharded

RHO = 0.25
CONTROLLER = "hybrid"


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(round(full * scale)))


def powerlaw_graph(n: int, avg_degree: int, seed: int, power: float = 0.8) -> CCGraph:
    """Heavy-tailed random graph: both endpoints of every edge are drawn
    with Zipf-like weight ``(i+1)^-power``.  Sampling is vectorised; only
    the edge insertion walks the public ``CCGraph`` API."""
    rng = np.random.default_rng([seed, 0x9E37])
    target = n * avg_degree // 2
    weights = np.arange(1, n + 1, dtype=np.float64) ** -power
    weights /= weights.sum()
    draw = int(target * 1.4)  # oversample, then drop self-loops and duplicates
    u = rng.choice(n, size=draw, p=weights)
    v = rng.choice(n, size=draw, p=weights)
    keep = u != v
    pairs = np.unique(
        np.stack([np.minimum(u, v)[keep], np.maximum(u, v)[keep]], axis=1), axis=0
    )
    pairs = pairs[rng.permutation(len(pairs))[:target]]
    return CCGraph.from_edges(n, pairs.tolist())


def oversupplied_flow_network(n: int, seed: int, extra_arcs: int = 8):
    """``build_app_input("maxflow")`` plus *extra_arcs* seeded source arcs.

    The catalog's random networks are bimodal: when the source happens to
    emit no more than the sink absorbs, preflow-push drains in ~n commits,
    otherwise the surplus is relabelled back to the source in ~n² commits
    (measured at n=400: 0.015 s vs 2.35 s, roughly half the seeds each).
    Extra source arcs make every seed over-supply the sink, so the
    workload is the long regime — thousands of tiny steps — on all seeds.
    """
    network = build_app_input("maxflow", n, seed=seed)
    rng = np.random.default_rng([seed, 0x51AC])
    inner = np.arange(1, n - 1)
    for v in rng.choice(inner, size=min(extra_arcs, len(inner)), replace=False):
        network.add_edge(network.source, int(v), 20)
    return network


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    #: ``build(seed, scale)`` -> the program's input
    build: Callable[[int, float], object]
    #: ``config(seed, scale)`` -> RunConfig
    config: Callable[[int, float], RunConfig]
    #: the public entry point being measured: ``execute(config, input, **obs)``
    execute: Callable[..., object]
    #: the run mutates its input, so every run gets a fresh build
    mutates_input: bool = False
    #: the work-set must be empty at the end
    drains: bool = False
    #: fewest total commits the input implies, when the app fixes them
    min_commits: "Callable[[object], int] | None" = None
    #: independently seeded inputs one end-to-end process runs and averages
    inputs: int = 3


def api_run(config: RunConfig, source, **obs) -> object:
    """*obs* is ``recorder=``/``metrics=`` for the observability probe."""
    return run(config, graph=source, **obs)


def _pool_run(config: RunConfig, source, **obs) -> object:
    # run_sharded ignores config.seed (api.run honours it): without an
    # explicit seed= two fresh processes commit different task counts
    return run_sharded(config, source, seed=config.seed, **obs)


def _config(workload: str, seed: int, m_max: int, max_steps=None, order=None) -> RunConfig:
    return RunConfig(
        workload=workload,
        controller=CONTROLLER,
        rho=RHO,
        m_max=m_max,
        max_steps=max_steps,
        order=order,
        seed=seed,
    )


WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            name="replay_static",
            build=lambda seed, s: gnm_random(_scaled(10000, s, 400), 8, seed=seed),
            config=lambda seed, s: _config(
                "replay", seed, _scaled(10000, s, 400), max_steps=_scaled(100, s, 12)
            ),
            execute=api_run,
            # half the size the batches could afford, twice the inputs: a
            # busy host slows n=20000 by 8-11%, n=10000 by 5%
            inputs=6,
        ),
        Workload(
            name="regen_morph",
            build=lambda seed, s: gnm_random(_scaled(3000, s, 300), 8, seed=seed),
            # m_max below the controller's settling point (~250 at n=3000):
            # the allocation pins at the clamp, so every seed commits the
            # same amount of morph work instead of wandering in the dead-band
            config=lambda seed, s: _config(
                "regenerating", seed, _scaled(128, s, 16), max_steps=_scaled(60, s, 10)
            ),
            execute=api_run,
            mutates_input=True,
        ),
        Workload(
            name="maxflow_tinysteps",
            build=lambda seed, s: oversupplied_flow_network(_scaled(200, s, 40), seed),
            config=lambda seed, s: _config("maxflow", seed, 4096),
            execute=api_run,
            drains=True,
        ),
        Workload(
            name="boruvka_locks",
            build=lambda seed, s: build_app_input("boruvka", _scaled(1000, s, 200), seed=seed),
            config=lambda seed, s: _config("boruvka", seed, 4096),
            execute=api_run,
            drains=True,
            # n singleton tasks, plus one spawned by each of the n-1 merges
            # but the last; every raced retry adds one more
            min_commits=lambda graph: 2 * graph.num_nodes - 2,
            # small and many: the run scans dict-of-tuple edge tables, and a
            # working set beyond the core's own cache slows by up to 24% when
            # the host's other tenants are busy (3% at this size); 24 inputs
            # also average the chaotic length of the run's tail (steps of
            # m~2) out of sim_commits_per_step
            inputs=24,
        ),
        Workload(
            name="sharded_powerlaw",
            build=lambda seed, s: powerlaw_graph(_scaled(20000, s, 1000), 10, seed),
            config=lambda seed, s: _config(
                "replay",
                seed,
                _scaled(16384, s, 256),
                max_steps=_scaled(60, s, 8),
                order="sharded:2",
            ),
            execute=_pool_run,
        ),
    )
}


def signature(result) -> "tuple[int, int, int]":
    """``(steps, committed, aborted)`` — identical for identical inputs."""
    return (len(result), result.total_committed, result.total_aborted)


def check_result(workload: Workload, config: RunConfig, source, result) -> "list[str]":
    """Model invariants of one finished run; empty list = correct."""
    errors: "list[str]" = []
    steps = result.steps
    if not steps:
        return ["run executed no steps"]
    for s in steps:
        if s.launched != s.committed + s.aborted:
            errors.append(f"step {s.step}: launched != committed + aborted")
        if s.launched > min(s.requested, s.workset_before):
            errors.append(f"step {s.step}: launched > min(requested, workset_before)")
        if s.requested > config.m_max:
            errors.append(f"step {s.step}: requested {s.requested} > m_max {config.m_max}")
        if len(errors) >= 5:
            break
    if workload.drains:
        if steps[-1].workset_after != 0:
            errors.append(f"work-set not drained: {steps[-1].workset_after} tasks left")
    elif config.max_steps is not None and len(steps) != config.max_steps:
        errors.append(f"ran {len(steps)} steps, expected max_steps={config.max_steps}")
    if workload.min_commits is not None:
        want = workload.min_commits(source)
        if result.total_committed < want:
            errors.append(f"committed {result.total_committed}, input implies >= {want}")
    return errors
