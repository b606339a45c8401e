"""FIG3 — controller trajectories ``m_t`` (paper Fig. 3).

Two realisations of the hybrid Algorithm 1 against a Recurrence-A-only
controller, on two random CC graphs of different density (hence different
optima ``μ``), with ``n = 2000`` and ``ρ = 20%``, all starting from the
cold allocation ``m₀ = 2``.

Paper claims checked by the benchmark:

* the hybrid converges close to ``μ`` in ≈15 temporal steps;
* Recurrence A alone converges far more slowly (its per-window growth is
  bounded by ``1 + ρ``);
* after settling, the hybrid's trajectory is stable (dead-band).
"""

from __future__ import annotations

from repro.control.hybrid import RECURRENCE_A, HybridController, HybridParams
from repro.control.tuning import oracle_mu
from repro.experiments.base import ExperimentResult
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ReplayGraphWorkload
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run", "default_hybrid"]


def default_hybrid(rho: float) -> HybridController:
    """The paper's hybrid with the Fig. 3 small-m split (threshold 20)."""
    return HybridController(
        rho,
        params=HybridParams(period=4, r_min=0.03, alpha0=0.25, alpha1=0.06),
        small_params=HybridParams(period=4, r_min=0.05, alpha0=0.30, alpha1=0.10),
        small_m_threshold=20,
    )


def run(
    n: int = 2000,
    degrees: tuple[int, int] = (16, 48),
    rho: float = 0.20,
    steps: int = 120,
    seed=None,
) -> ExperimentResult:
    """Trajectories of hybrid vs Recurrence-A-only on two random graphs."""
    rng = ensure_rng(seed)
    result = ExperimentResult(
        name="FIG3 controller trajectories",
        description=(
            f"m_t for hybrid Algorithm 1 vs Recurrence-A-only; n={n}, "
            f"d∈{degrees}, ρ={rho:.0%}, m₀=2, {steps} steps."
        ),
        xlabel="temporal step t",
        ylabel="allocation m_t",
    )
    rows = []
    for d in degrees:
        graph_rng, mu_rng, run_rng_h, run_rng_a = spawn(rng, 4)
        graph = gnm_random(n, d, seed=graph_rng)
        mu = oracle_mu(graph, rho, seed=mu_rng)

        hybrid = default_hybrid(rho)
        res_h = make_engine(
            ReplayGraphWorkload(graph.copy()), hybrid, seed=run_rng_h
        ).run(max_steps=steps)

        rec_a = HybridController(rho, params=RECURRENCE_A)
        res_a = make_engine(
            ReplayGraphWorkload(graph.copy()), rec_a, seed=run_rng_a
        ).run(max_steps=steps)

        # "close to μ": ±40% band with 20% excursion allowance — small
        # optima (μ ≈ 20) have realisation noise the paper's Fig. 3 also
        # shows, and the claim is about the transient, not the wobble
        settle_h = res_h.settling_step(mu, band=0.4, outlier_fraction=0.2)
        settle_a = res_a.settling_step(mu, band=0.4, outlier_fraction=0.2)
        xs = list(range(steps))
        result.add_series(f"hybrid d={d} (μ={mu})", xs, res_h.m_trace.tolist())
        result.add_series(f"rec-A d={d} (μ={mu})", xs, res_a.m_trace.tolist())
        rows.append(
            (
                d,
                mu,
                settle_h,
                settle_a,
                float(res_h.m_trace[-20:].mean()),
                float(res_h.r_trace[-20:].mean()),
                float(res_a.r_trace[-20:].mean()),
            )
        )
        result.scalars[f"settle_hybrid_d{d}"] = float(settle_h)
        result.scalars[f"settle_recA_d{d}"] = float(settle_a)
    result.add_table(
        "convergence summary",
        ["d", "μ", "settle(hybrid)", "settle(recA)", "m̄ tail(hyb)", "r̄ tail(hyb)", "r̄ tail(recA)"],
        rows,
    )
    result.add_note(
        "Paper: hybrid converges close to μ in ~15 steps; Recurrence A alone "
        "is an order of magnitude slower from a cold start."
    )
    return result
