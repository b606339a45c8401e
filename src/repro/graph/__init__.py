"""CC-graph substrate: dynamic conflict graphs, generators, morphs, partitions."""

from repro.graph.ccgraph import CCGraph, GraphSnapshot
from repro.graph.generators import (
    clique_plus_isolated,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnm_random,
    gnp_random,
    grid_graph,
    kdn_worst_case,
    path_graph,
    powerlaw_graph,
    random_geometric,
    random_regular,
    union_of_cliques,
)
from repro.graph.morph import attach_clique, boundary, contract_nodes, replace_cavity
from repro.graph.partition import (
    GraphPartition,
    partition_graph,
    two_phase_commit_mask,
)

__all__ = [
    "CCGraph",
    "GraphSnapshot",
    "clique_plus_isolated",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "gnm_random",
    "gnp_random",
    "grid_graph",
    "kdn_worst_case",
    "path_graph",
    "powerlaw_graph",
    "random_geometric",
    "random_regular",
    "union_of_cliques",
    "attach_clique",
    "boundary",
    "contract_nodes",
    "replace_cavity",
    "GraphPartition",
    "partition_graph",
    "two_phase_commit_mask",
]
