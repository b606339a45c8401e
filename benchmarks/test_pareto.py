"""PARETO — the §2.1 makespan/energy trade-off swept by ρ."""

import numpy as np
import pytest

from repro.control.hybrid import HybridController
from repro.experiments.runner import run_experiment
from repro.graph.generators import gnm_random
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ConsumingGraphWorkload


@pytest.fixture(scope="module")
def pareto_result():
    return run_experiment("pareto", seed=0)


def _one_drain():
    wl = ConsumingGraphWorkload(gnm_random(4000, 16, seed=31))
    return make_engine(wl, HybridController(0.25, m_max=2048), seed=32).run(max_steps=10**6)


def test_pareto_regeneration(pareto_result, benchmark):
    res = benchmark.pedantic(_one_drain, rounds=2, iterations=1)
    assert res.total_committed == 4000

    s = pareto_result.scalars
    # higher targets buy speed...
    assert s["makespan_rho0.6"] < s["makespan_rho0.05"]
    # ...and cost waste
    assert s["waste_rho0.6"] > s["waste_rho0.05"]
    # delivered waste tracks the requested target (the controller works)
    for rho in (0.1, 0.2, 0.3):
        assert s[f"waste_rho{rho:g}"] == pytest.approx(rho, abs=0.12)


def test_remark1_band_is_the_knee(pareto_result):
    """ρ = 0.2–0.3 captures most of the speed at far below max energy."""
    s = pareto_result.scalars
    speed_gain_total = s["makespan_rho0.05"] - s["makespan_rho0.6"]
    speed_gain_at_03 = s["makespan_rho0.05"] - s["makespan_rho0.3"]
    assert speed_gain_at_03 >= 0.6 * speed_gain_total
    assert s["energy_rho0.3"] <= 0.8 * s["energy_rho0.6"]


def test_waste_monotone_in_rho(pareto_result):
    name, rhos, _ = pareto_result.series[0]
    wastes = [pareto_result.scalars[f"waste_rho{r:g}"] for r in rhos]
    diffs = np.diff(wastes)
    assert np.all(diffs > -0.03)
