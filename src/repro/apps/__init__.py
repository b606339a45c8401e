"""Irregular applications: the workloads that drive the controller.

Every application is an :class:`~repro.apps.base.AppWorkload` — it
speaks the core workload protocol (``workset`` / ``operator`` /
``policy``, wired by :func:`repro.runtime.engine.make_engine`) and is
registered as a named workload (see :mod:`repro.apps.catalog`), so
``repro.api.run(RunConfig(workload="boruvka"))`` runs it through the
full pipeline: any commit-order policy, selection backend, and the
observability / sweep / sharding machinery.

Names are re-exported lazily: resolving an app name through the catalog
imports no app module, and running one imports that app alone.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("AppWorkload",),
        "catalog": (
            "APP_WORKLOADS",
            "DEFAULT_SCALES",
            "ORDERED_APPS",
            "build_app_input",
            "check_order_combination",
            "make_app_workload",
            "workload_from_input",
        ),
        "boruvka": (
            "BoruvkaMST",
            "WeightedGraph",
            "kruskal_weight",
            "random_weighted_graph",
        ),
        "clustering": ("AgglomerativeClustering", "random_points"),
        "coloring": ("GreedyColoring",),
        "des": ("DiscreteEventSimulation", "QueueingNetwork", "sequential_history"),
        "components": ("LabelPropagation",),
        "maxflow": ("FlowNetwork", "PreflowPush", "random_flow_network"),
        "delaunay": (
            "RefinementWorkload",
            "Triangulation",
            "mesh_quality",
            "random_input_mesh",
        ),
        "profiles": (
            "Phase",
            "ScheduledReplayWorkload",
            "clique_sizes",
            "delaunay_burst_profile",
            "spike_profile",
            "step_profile",
        ),
        "sp": ("SatInstance", "SurveyPropagation", "random_ksat"),
    },
)
