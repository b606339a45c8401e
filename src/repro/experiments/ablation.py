"""ABL — ablation of Algorithm 1's design choices.

Every knob the paper motivates gets switched off or varied in isolation,
on the Fig. 3 setup (stationary random CC graph, ``ρ = 20%``):

* **hybridisation** — hybrid vs A-only vs B-only (speed/stability trade;
  the single recurrences are the ``RECURRENCE_A`` / ``RECURRENCE_B``
  presets of the same controller);
* **averaging window T** — T = 1 (raw per-step ratios) vs 4 vs 12;
* **dead-band α₁** — 0 (always update) vs 6% vs 20%;
* **switch threshold α₀** — when does Recurrence B stop being used;
* **r_min floor** — without it, one lucky zero-conflict window makes B
  explode to m_max;
* **small-m split** — the Fig. 3 refinement;
* **smart start** — Cor. 3 initial allocation vs cold m₀ = 2;
* plus the external baselines (AIMD, A-Steal, PI, bisection, oracle).

Scored by :func:`repro.control.tuning.sweep_controllers`: settling step,
steady-state wobble and tracking error, averaged over replications.
"""

from __future__ import annotations

from repro.control.aimd import AIMDController
from repro.control.asteal import AStealController
from repro.control.bisection import BisectionController
from repro.control.hybrid import (
    RECURRENCE_A,
    RECURRENCE_B,
    HybridController,
    HybridParams,
)
from repro.control.oracle import OracleController
from repro.control.pid import PIController
from repro.control.tuning import oracle_mu, summarize_sweep, sweep_controllers
from repro.experiments.base import ExperimentResult
from repro.experiments.fig3 import default_hybrid
from repro.graph.generators import gnm_random
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run", "ablation_factories"]


def ablation_factories(rho: float, n: int, d: float, mu: int):
    """The full named set of controller configurations under ablation."""
    return {
        "hybrid (paper)": lambda: default_hybrid(rho),
        "A-only": lambda: HybridController(rho, params=RECURRENCE_A),
        "B-only": lambda: HybridController(rho, params=RECURRENCE_B),
        "T=1": lambda: HybridController(rho, params=HybridParams(period=1)),
        "T=12": lambda: HybridController(rho, params=HybridParams(period=12)),
        "no dead-band": lambda: HybridController(
            rho, params=HybridParams(alpha1=0.0)
        ),
        "wide dead-band": lambda: HybridController(
            rho, params=HybridParams(alpha1=0.20, alpha0=0.35)
        ),
        "alpha0=inf (never B)": lambda: HybridController(
            rho, params=HybridParams(alpha0=None)
        ),
        "alpha0=alpha1 (always B)": lambda: HybridController(
            rho, params=HybridParams(alpha0=0.06)
        ),
        "r_min=1e-6": lambda: HybridController(
            rho, params=HybridParams(r_min=1e-6)
        ),
        "smart start": lambda: HybridController.smart_start(rho, n, d),
        "AIMD": lambda: AIMDController(rho),
        "A-Steal [1]": lambda: AStealController(rho),
        "PI": lambda: PIController(rho),
        "bisection": lambda: BisectionController(rho),
        "oracle": lambda: OracleController(mu),
    }


def run(
    n: int = 2000,
    d: int = 16,
    rho: float = 0.20,
    steps: int = 160,
    replications: int = 4,
    seed=None,
) -> ExperimentResult:
    """Score every ablated configuration on the stationary Fig. 3 setup."""
    rng = ensure_rng(seed)
    graph_rng, mu_rng, sweep_rng = spawn(rng, 3)
    graph = gnm_random(n, d, seed=graph_rng)
    mu = oracle_mu(graph, rho, seed=mu_rng)
    factories = ablation_factories(rho, n, graph.average_degree, mu)
    sweep = sweep_controllers(
        factories, graph, rho, steps=steps, replications=replications, seed=sweep_rng
    )
    result = ExperimentResult(
        name="ABL Algorithm 1 ablation",
        description=(
            f"Design-choice ablation on a stationary gnm(n={n}, d={d}) graph, "
            f"ρ={rho:.0%}, {steps} steps × {replications} replications; μ={mu}."
        ),
    )
    rows = [
        (name, round(settle, 1), round(wobble, 3), round(r_mean, 3), round(err, 3))
        for name, settle, wobble, r_mean, err in summarize_sweep(sweep)
    ]
    result.add_table(
        "mean over replications",
        ["configuration", "settling step", "wobble", "steady r̄", "|r−ρ|"],
        rows,
    )
    for name, metrics in sweep.items():
        result.scalars[f"settle::{name}"] = float(
            sum(m.settling_step for m in metrics) / len(metrics)
        )
    result.scalars["mu"] = float(mu)
    result.add_note(
        "wobble = std(m)/mean(m) after settling; oracle rows give the floor."
    )
    return result
