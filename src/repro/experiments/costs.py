"""COSTS — how expensive rollback shifts the optimal target ρ*.

§2 assumes aborted and committed tasks cost the same; §2.1 notes rollback
"can be quite resource-consuming", and §1 motivates the whole problem with
power.  This experiment makes the power argument concrete: a machine of
``P`` processors runs the draining workload; every processor burns 1 unit
of energy per step when speculating (commit or abort) and ``idle_power``
units when idle, and aborts additionally cost ``abort_factor ×`` a commit
(:class:`ScaledAbortCostModel` — undo logs, cache pollution):

    energy(ρ) = commit_cost + abort_factor·aborts + idle_power·(P·makespan − launched)

Low targets leave the machine idling (long makespans burn idle power);
high targets burn speculation.  The optimum ρ* therefore sits in the
interior — and it must *decrease* as the abort factor grows, which is the
quantitative answer to "does the unit-cost assumption matter?": it does
not change Algorithm 1, only where you should point it.
"""

from __future__ import annotations

import numpy as np

from repro.control.hybrid import HybridController
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.graph.generators import gnm_random
from repro.runtime.costs import ScaledAbortCostModel
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload
from repro.utils.rng import ensure_rng, spawn

__all__ = ["run"]


def run(
    n: int = 3000,
    d: int = 16,
    abort_factors: tuple[float, ...] = (0.25, 1.0, 2.0, 4.0),
    rhos: tuple[float, ...] = (0.05, 0.10, 0.20, 0.30, 0.45),
    machine_size: int = 256,
    idle_power: float = 0.25,
    replications: int = 2,
    seed=None,
) -> ExperimentResult:
    """Sweep (abort factor × ρ) and locate each factor's energy-optimal ρ*."""
    if replications < 1:
        raise ExperimentError(f"need >= 1 replication, got {replications}")
    if machine_size < 1:
        raise ExperimentError(f"machine size must be >= 1, got {machine_size}")
    if not 0.0 <= idle_power <= 1.0:
        raise ExperimentError(f"idle power must be in [0, 1], got {idle_power}")
    rng = ensure_rng(seed)
    base_graph = gnm_random(n, d, seed=rng)

    result = ExperimentResult(
        name="COSTS abort-cost sensitivity",
        description=(
            f"Hybrid draining gnm(n={n}, d={d}) on a {machine_size}-processor "
            f"machine (idle power {idle_power}); aborts priced at "
            f"{list(abort_factors)}× a commit."
        ),
    )
    best_rhos = []
    for factor in abort_factors:
        rows = []
        energies = []
        for rho in rhos:
            acc = []
            for rep_rng in spawn(rng, replications):
                workload = ConsumingGraphWorkload(base_graph.copy())
                engine = make_engine(
                    workload,
                    HybridController(rho, m_max=machine_size),
                    seed=rep_rng,
                    cost_model=ScaledAbortCostModel(factor),
                )
                res = engine.run(max_steps=10**6)
                if res.total_committed != n:
                    raise ExperimentError(f"run at rho={rho} did not drain")
                active = engine.costs.total
                idle = idle_power * (machine_size * len(res) - res.processor_steps())
                acc.append((len(res), active, idle))
            makespan = float(np.mean([a[0] for a in acc]))
            active = float(np.mean([a[1] for a in acc]))
            idle = float(np.mean([a[2] for a in acc]))
            energy = active + idle
            energies.append(energy)
            rows.append(
                (
                    rho,
                    round(makespan, 1),
                    round(active, 0),
                    round(idle, 0),
                    round(energy, 0),
                )
            )
        best = float(rhos[int(np.argmin(energies))])
        best_rhos.append(best)
        result.add_table(
            f"abort factor {factor}× (energy-optimal ρ = {best:g})",
            ["rho", "makespan", "active energy", "idle energy", "total energy"],
            rows,
        )
        result.scalars[f"best_rho_factor{factor:g}"] = best
    result.add_series(
        "energy-optimal rho vs abort factor", list(abort_factors), best_rhos
    )
    result.add_note(
        "Pricier rollbacks push the optimal target down; cheap rollbacks "
        "reward aggressive speculation — the unit-cost assumption matters "
        "for choosing ρ, not for the controller design."
    )
    return result
