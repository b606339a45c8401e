"""FIG2 — conflict-ratio curves ``r̄(m)`` (paper Fig. 2).

Reproduces the three curves for ``n = 2000, d = 16``:

(i)   the worst-case upper bound of Cor. 2,
(ii)  a G(n, M) random graph (Monte-Carlo simulation),
(iii) a union of cliques plus disconnected nodes (half the nodes in
      ``2(d+1)``-cliques, half isolated, preserving the average degree).

Expected shape (checked by the benchmark): all three start with the same
derivative ``d/(2(n−1))`` (Prop. 2); the worst-case bound dominates the
random graph everywhere; curves that climb high (> ½ at m = n) look linear
in the controller's operating region ``r̄ ≤ 20–30%`` — the experimental
fact motivating Recurrence B.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.graph.ccgraph import CCGraph
from repro.graph.generators import gnm_random, union_of_cliques
from repro.model.conflict_ratio import conflict_ratio_curve
from repro.model.turan import initial_derivative, worst_case_conflict_ratio_approx
from repro.utils.rng import ensure_rng, spawn

__all__ = ["cliques_plus_isolated_matched", "run"]


def cliques_plus_isolated_matched(n: int, d: int) -> CCGraph:
    """Union of cliques ∪ isolated nodes with ``n`` nodes and avg degree ``d``.

    Fig. 2's curve (iii): put half the edges' mass in cliques of size
    ``2(d+1)`` (so their internal degree is ``2d+1 ≈ 2d``) covering half
    the nodes, leave the rest isolated — average degree ≈ ``d`` with a
    maximally bimodal structure.
    """
    clique_size = 2 * (d + 1)
    # x cliques of size s have x·s·(s−1)/2 edges; match n·d/2 total
    num_cliques = max(int(round(n * d / (clique_size * (clique_size - 1)))), 1)
    covered = num_cliques * clique_size
    if covered > n:
        raise ValueError(f"cannot fit {num_cliques} cliques of {clique_size} in n={n}")
    g = union_of_cliques(num_cliques, clique_size)
    for _ in range(n - covered):
        g.add_node()
    return g


def run(
    n: int = 2000,
    d: int = 16,
    grid_size: int = 25,
    reps: int = 100,
    seed=None,
) -> ExperimentResult:
    """Generate the three Fig. 2 curves and their comparison table."""
    rng = ensure_rng(seed)
    rng_random, rng_cliq = spawn(rng, 2)
    ms = np.unique(np.geomspace(2, n, grid_size).astype(int))

    random_graph = gnm_random(n, d, seed=rng_random)
    cliq_graph = cliques_plus_isolated_matched(n, d)

    bound = np.array([worst_case_conflict_ratio_approx(n, d, int(m)) for m in ms])
    curve_rand = conflict_ratio_curve(random_graph, ms, reps=reps, seed=rng_random)
    curve_cliq = conflict_ratio_curve(cliq_graph, ms, reps=reps, seed=rng_cliq)

    result = ExperimentResult(
        name="FIG2 conflict-ratio curves",
        description=(
            f"r̄(m) for n={n}, d={d}: Cor.2 worst-case bound vs random graph "
            f"vs cliques∪isolated (MC, {reps} reps/point)."
        ),
        xlabel="m (active nodes)",
        ylabel="conflict ratio r̄(m)",
    )
    rows = [
        (
            int(m),
            float(b),
            float(r),
            float(rh),
            float(c),
            float(ch),
        )
        for m, b, r, rh, c, ch in zip(
            ms,
            bound,
            curve_rand.ratios,
            curve_rand.half_widths,
            curve_cliq.ratios,
            curve_cliq.half_widths,
        )
    ]
    result.add_table(
        "r̄(m) by graph family",
        ["m", "worst-case", "random", "±", "cliques+isolated", "±"],
        rows,
    )
    result.add_series("worst-case bound", ms.tolist(), bound.tolist())
    result.add_series("random graph", ms.tolist(), curve_rand.ratios.tolist())
    result.add_series("cliques+isolated", ms.tolist(), curve_cliq.ratios.tolist())
    result.scalars["initial_derivative_formula"] = initial_derivative(n, d)
    result.scalars["random_d"] = random_graph.average_degree
    result.scalars["cliques_d"] = cliq_graph.average_degree
    dominated = float(np.mean(bound + 1e-9 >= curve_rand.ratios - curve_rand.half_widths))
    result.scalars["bound_dominates_random_fraction"] = dominated
    result.add_note(
        "Prop. 2: all curves share initial slope d/(2(n-1)); "
        "Thm. 2/3: the worst-case bound must dominate both simulated curves."
    )
    return result
