"""THEORY — the closed-form claims of §3 (Prop. 2, Thm. 2/3, Cor. 2/3).

Four checks, each comparing analysis against Monte-Carlo simulation:

* **PROP2**: ``Δr̄(1) = d/(2(n−1))`` for graphs of very different shapes
  (random, regular, power-law, grid) — the formula depends only on
  ``(n, d)``.
* **THM3**: the closed form ``EM_m(K_d^n)`` matches simulation of the
  actual clique-union graph.
* **THM2 (dominance)**: every same-``(n, d)`` graph has
  ``EM_m(G) ≥ EM_m(K_d^n)``, i.e. the worst-case bound on ``r̄`` holds.
* **COR3**: at ``m = α·n/(d+1)`` the degree-free bound
  ``1 − (1−e^{−α})/α`` holds; at ``α = ½`` it evaluates to the paper's
  21.3% smart-start guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.graph.generators import (
    gnm_random,
    grid_graph,
    kdn_worst_case,
    powerlaw_graph,
    random_regular,
)
from repro.model.conflict_ratio import estimate_conflict_ratio, estimate_em
from repro.model.turan import (
    alpha_conflict_bound_limit,
    em_kdn,
    initial_derivative,
    worst_case_conflict_ratio,
)
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run"]


def run(n: int = 2040, d: int = 16, reps: int = 400, seed=None) -> ExperimentResult:
    """All four §3 checks at one (n, d); needs (d+1) | n.

    The default n = 2040 is Fig. 2's n = 2000 rounded to a multiple of
    d + 1 = 17.
    """
    rng = ensure_rng(seed)
    if n % (d + 1) != 0:
        raise ValueError(f"need (d+1) | n for K_d^n, got n={n}, d={d}")
    result = ExperimentResult(
        name="THEORY §3 bounds",
        description=f"Prop.2 / Thm.3 / Thm.2 dominance / Cor.3 at n={n}, d={d}.",
    )

    # --- PROP2: initial derivative across graph shapes -------------------
    gen_rng = spawn(rng, 4)
    shapes = {
        "gnm": gnm_random(n, d, seed=gen_rng[0]),
        "regular": random_regular(n, d, seed=gen_rng[1]),
        "powerlaw": powerlaw_graph(n, max(d // 2, 1), seed=gen_rng[2]),
        "grid": grid_graph(17, 30),  # 510 nodes, d≈3.8
    }
    rows = []
    for name, g in shapes.items():
        gn, gd = g.num_nodes, g.average_degree
        formula = initial_derivative(gn, gd)
        mc = estimate_conflict_ratio(g, 2, reps=20 * reps, seed=gen_rng[3])
        rows.append((name, gn, round(gd, 3), formula, mc.mean, mc.half_width))
    result.add_table(
        "PROP2: Δr̄(1) = d/2(n−1) (r̄(2) measured)",
        ["graph", "n", "d", "formula", "MC", "±"],
        rows,
    )

    # --- THM3: closed form vs simulation on K_d^n ------------------------
    kdn = kdn_worst_case(n, d)
    ms = np.unique(np.geomspace(2, n, 10).astype(int))
    rows = []
    for m in ms:
        exact = em_kdn(n, d, int(m))
        mc = estimate_em(kdn, int(m), reps=reps, seed=rng)
        rows.append((int(m), exact, mc.mean, mc.half_width))
    result.add_table(
        "THM3: EM_m(K_d^n) closed form vs MC",
        ["m", "closed form", "MC", "±"],
        rows,
    )

    # --- THM2: K_d^n minimises EM_m among same-(n,d) graphs --------------
    rows = []
    violations = 0
    comparison = {"gnm": shapes["gnm"], "regular": shapes["regular"]}
    for m in ms:
        worst = em_kdn(n, d, int(m))
        row: list[object] = [int(m), worst]
        for name, g in comparison.items():
            mc = estimate_em(g, int(m), reps=reps, seed=rng)
            row.extend([mc.mean, mc.half_width])
            if mc.mean + mc.half_width < worst:
                violations += 1
        rows.append(tuple(row))
    result.add_table(
        "THM2: EM_m(G) ≥ EM_m(K_d^n)",
        ["m", "EM(K_d^n)", "EM(gnm)", "±", "EM(regular)", "±"],
        rows,
    )
    result.scalars["thm2_violations"] = float(violations)

    # --- COR3: the α-parametrised bound ----------------------------------
    rows = []
    for alpha in (0.25, 0.5, 1.0, 2.0):
        m = max(int(round(alpha * n / (d + 1))), 1)
        bound = alpha_conflict_bound_limit(alpha)
        exact_worst = worst_case_conflict_ratio(n, d, m)
        mc = estimate_conflict_ratio(kdn, m, reps=reps, seed=rng)
        rows.append((alpha, m, bound, exact_worst, mc.mean, mc.half_width))
        if abs(alpha - 0.5) < 1e-12:
            result.scalars["cor3_alpha_half_bound"] = bound
    result.add_table(
        "COR3: r̄ at m = α·n/(d+1) vs 1 − (1−e^{−α})/α",
        ["α", "m", "limit bound", "exact worst case", "MC on K_d^n", "±"],
        rows,
    )
    result.add_note(
        "Cor.3 at α=1/2 gives the 21.3% smart-start guarantee quoted in §4."
    )
    return result
