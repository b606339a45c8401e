"""ABL — ablation of Algorithm 1's design choices on the Fig. 3 setup."""

import pytest

from repro.experiments import ablation
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def abl_result():
    return run_experiment("ablation", seed=0)


def _settles(result):
    return {
        k.removeprefix("settle::"): v
        for k, v in result.scalars.items()
        if k.startswith("settle::")
    }


def test_ablation_regeneration(abl_result, benchmark):
    benchmark.pedantic(
        lambda: ablation.run(n=800, d=12, steps=80, replications=1, seed=1),
        rounds=1,
        iterations=1,
    )


def test_hybridisation_pays(abl_result):
    """The hybrid must settle far faster than A-only (the whole point)."""
    s = _settles(abl_result)
    assert s["hybrid (paper)"] * 2 <= s["A-only"]


def test_smart_start_is_best_cold_start(abl_result):
    s = _settles(abl_result)
    assert s["smart start"] <= s["hybrid (paper)"]


def test_oracle_is_floor(abl_result):
    s = _settles(abl_result)
    assert s["oracle"] == 0.0
    assert all(v >= 0.0 for v in s.values())


def test_aimd_slower_than_hybrid(abl_result):
    """AIMD's additive climb loses to Recurrence B's multiplicative jump."""
    s = _settles(abl_result)
    assert s["hybrid (paper)"] < s["AIMD"]


def test_raw_updates_are_noisy(abl_result):
    """T=1 (no averaging) must be less stable than the paper's T=4."""
    rows = abl_result.tables[0][2]
    wobble = {name: w for name, settle, w, r, err in rows}
    assert wobble["T=1"] >= wobble["hybrid (paper)"]
