"""Name-indexed catalog of the application workloads.

Bridges :mod:`repro.apps` to the ``"workload"`` registry: every app gets
a stable name usable as ``RunConfig(workload="boruvka")`` (optionally
with a ``":<scale>"`` suffix pinning the problem size), a seeded
synthetic-input builder for graph-less runs, and a uniform constructor
that threads the registry-matched work-set through.  Name and order
checks read the name tables alone; app modules are imported inside the
builders, and :mod:`repro.apps` re-exports lazily, so importing this
module loads no app and a run loads the one app it builds.

The input recipes deliberately match ``experiments/apps_eval.py`` so a
registry run and the APPS experiment exercise the same instances.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.utils.rng import derive_seed

__all__ = [
    "APP_WORKLOADS",
    "ORDERED_APPS",
    "DEFAULT_SCALES",
    "build_app_input",
    "workload_from_input",
    "check_order_combination",
    "make_app_workload",
]

#: registry names of the application workloads
APP_WORKLOADS = (
    "boruvka",
    "clustering",
    "coloring",
    "components",
    "delaunay",
    "des",
    "maxflow",
    "sp",
)

#: apps whose commits must respect priorities (``requires_order``); the
#: config/registry layer rejects unordered commit orders for these
ORDERED_APPS = ("des",)

#: default problem size when the spec carries no ``:<scale>`` suffix
DEFAULT_SCALES = {
    "boruvka": 200,
    "clustering": 200,
    "coloring": 200,
    "components": 200,
    "delaunay": 80,
    "des": 16,
    "maxflow": 80,
    "sp": 40,
}


def _unknown(name: str) -> ConfigError:
    return ConfigError(
        f"unknown application workload {name!r}; known: {', '.join(APP_WORKLOADS)}"
    )


def build_app_input(name: str, scale: int, seed=None):
    """Seeded synthetic input for app *name* at problem size *scale*."""
    if name == "boruvka":
        from repro.apps.boruvka import random_weighted_graph

        return random_weighted_graph(scale, 8, seed=seed)
    if name == "clustering":
        from repro.apps.clustering import random_points

        return random_points(scale, seed=seed)
    if name == "coloring":
        from repro.graph.generators import gnm_random

        return gnm_random(scale, 10, seed=seed)
    if name == "components":
        from repro.graph.generators import gnm_random

        return gnm_random(scale, 4, seed=seed)
    if name == "delaunay":
        from repro.apps.delaunay import random_input_mesh

        return random_input_mesh(max(scale, 3), seed=seed)
    if name == "des":
        from repro.apps.des import QueueingNetwork

        return QueueingNetwork(max(scale, 2), seed=seed)
    if name == "maxflow":
        from repro.apps.maxflow import random_flow_network

        return random_flow_network(max(scale, 2), avg_out_degree=3.0, seed=seed)
    if name == "sp":
        from repro.apps.sp import random_ksat

        return random_ksat(scale, 3 * scale, k=3, seed=seed)
    raise _unknown(name)


def workload_from_input(name: str, source, *, seed=None, workset=None):
    """Construct app *name* over *source* (an output of
    :func:`build_app_input`, or a caller-supplied equivalent)."""
    if name == "boruvka":
        from repro.apps.boruvka import BoruvkaMST

        return BoruvkaMST(source, workset=workset)
    if name == "clustering":
        from repro.apps.clustering import AgglomerativeClustering

        return AgglomerativeClustering(source, workset=workset)
    if name == "coloring":
        from repro.apps.coloring import GreedyColoring

        return GreedyColoring(source, workset=workset)
    if name == "components":
        from repro.apps.components import LabelPropagation

        return LabelPropagation(source, workset=workset)
    if name == "delaunay":
        from repro.apps.delaunay import RefinementWorkload

        return RefinementWorkload(source, min_angle=25.0, min_edge=0.02, workset=workset)
    if name == "des":
        from repro.apps.des import DiscreteEventSimulation

        return DiscreteEventSimulation(
            source,
            num_jobs=source.num_stations,
            end_time=5.0,
            seed=0 if seed is None else int(seed),
            workset=workset,
        )
    if name == "maxflow":
        from repro.apps.maxflow import PreflowPush

        return PreflowPush(source, workset=workset)
    if name == "sp":
        from repro.apps.sp import SurveyPropagation

        return SurveyPropagation(source, seed=seed, workset=workset)
    raise _unknown(name)


def check_order_combination(name: str, order: "str | None") -> None:
    """Reject commit orders an app workload cannot run under.

    ``requires_order`` apps need a priority-family order; every app
    detects conflicts with item locks, so a multi-shard ``sharded``
    order — which partitions an explicit CC graph — has nothing to cut.
    ``order=None`` is always fine — the workload then picks its own
    commit order (ordered for DES) in ``make_engine``.
    """
    if name not in APP_WORKLOADS or order is None:
        return
    # function-level up-reach into the registry layer, the sanctioned
    # pattern (see RunConfig.__post_init__)
    from repro.registry import order_family, parse_order_spec

    order_name, kwargs = parse_order_spec(order)
    if name in ORDERED_APPS and order_family(order_name) != "priority":
        raise ConfigError(
            f"workload {name!r} requires in-order commits "
            f'(order="ordered" or "relaxed:k"), got order={order!r}'
        )
    if order_name == "sharded" and kwargs.get("shards", 1) > 1:
        raise ConfigError(
            f"workload {name!r} detects conflicts with item locks; a "
            f"multi-shard order={order!r} needs an explicit-graph workload "
            '("replay", "consuming", "regenerating")'
        )


def make_app_workload(name: str, source, config, *, scale=None, workset=None):
    """Registry factory body for the app workloads.

    *source* is the value passed as ``api.run(graph=...)`` — any app
    input object; ``None`` synthesises one from the config seed, so
    ``run(RunConfig(workload="boruvka", seed=7))`` is self-contained and
    reproducible.
    """
    check_order_combination(name, getattr(config, "order", None))
    seed = derive_seed(getattr(config, "seed", None) or 0, "workload", name)
    if source is None:
        source = build_app_input(
            name, scale if scale is not None else DEFAULT_SCALES[name], seed
        )
    return workload_from_input(name, source, seed=seed, workset=workset)
