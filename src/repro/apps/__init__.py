"""Irregular applications: the workloads that drive the controller.

Every application is an :class:`~repro.apps.base.AppWorkload` — it
speaks the core workload protocol (``workset`` / ``operator`` /
``policy`` / :meth:`~repro.apps.base.AppWorkload.make_engine`) and is
registered as a named workload (see :mod:`repro.apps.catalog`), so
``repro.api.run(RunConfig(workload="boruvka"))`` runs it through the
full pipeline: any commit-order policy, selection backend, and the
observability / sweep / sharding machinery.
"""

from repro.apps.base import AppWorkload
from repro.apps.boruvka import (
    BoruvkaMST,
    WeightedGraph,
    kruskal_weight,
    random_weighted_graph,
)
from repro.apps.clustering import AgglomerativeClustering, random_points
from repro.apps.coloring import GreedyColoring, independent_set_via_coloring
from repro.apps.components import LabelPropagation
from repro.apps.maxflow import (
    FlowNetwork,
    PreflowPush,
    random_flow_network,
    reference_max_flow,
)
from repro.apps.des import (
    DiscreteEventSimulation,
    QueueingNetwork,
    sequential_history,
)
from repro.apps.delaunay import (
    RefinementWorkload,
    Triangulation,
    mesh_quality,
    random_input_mesh,
)
from repro.apps.profiles import (
    Phase,
    ScheduledReplayWorkload,
    clique_sizes,
    delaunay_burst_profile,
    ramp_profile,
    spike_profile,
    step_profile,
)
from repro.apps.catalog import (
    APP_WORKLOADS,
    DEFAULT_SCALES,
    ORDERED_APPS,
    build_app_input,
    check_order_combination,
    make_app_workload,
    workload_from_input,
)
from repro.apps.sp import SatInstance, SurveyPropagation, random_ksat

__all__ = [
    "AppWorkload",
    "APP_WORKLOADS",
    "DEFAULT_SCALES",
    "ORDERED_APPS",
    "build_app_input",
    "check_order_combination",
    "make_app_workload",
    "workload_from_input",
    "BoruvkaMST",
    "WeightedGraph",
    "kruskal_weight",
    "random_weighted_graph",
    "AgglomerativeClustering",
    "random_points",
    "GreedyColoring",
    "independent_set_via_coloring",
    "DiscreteEventSimulation",
    "QueueingNetwork",
    "sequential_history",
    "LabelPropagation",
    "FlowNetwork",
    "PreflowPush",
    "random_flow_network",
    "reference_max_flow",
    "RefinementWorkload",
    "Triangulation",
    "mesh_quality",
    "random_input_mesh",
    "Phase",
    "ScheduledReplayWorkload",
    "clique_sizes",
    "delaunay_burst_profile",
    "ramp_profile",
    "spike_profile",
    "step_profile",
    "SatInstance",
    "SurveyPropagation",
    "random_ksat",
]
