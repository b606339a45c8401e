"""Statistical conformance suite for the sharded commit order.

The sharded policy sits in the *unordered* family: its batch draw is the
paper's §2 uniform ``π_m`` sample, untouched by the shard count — only
the commit rule changes.  That gives three model-backed claims to hold
the implementation to, all chi-square tested at derived seeds:

* **launch conformance** — on a stationary replay workload the per-shard
  launch counts follow the uniform-draw model exactly: aggregated counts
  match the ``p_s = n_s / n`` multinomial proportions, and a single
  shard's per-round count follows the hypergeometric law
  ``H(n, n_s, m)``;
* **commit homogeneity** — the halo exchange walks the batch in (random)
  batch order, so on a structurally homogeneous graph no shard is
  systematically favoured: per-shard commit counts stay proportional to
  per-shard launches;
* **the all-cut degeneracy** — with at least as many shards as nodes
  every edge crosses a cut, phase 1 commits everything and phase 2 *is*
  the global greedy walk: per-step commit/abort statistics must equal
  the unordered policy's exactly (not statistically).

Seeds derive from ``REPRO_TEST_SEED`` (default 0) so CI's flaky-hunter
job re-runs the suite under several seeds; the chi-square significance
matches the select-distribution suite.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np
import pytest
from scipy import stats

from repro.api import run
from repro.config import RunConfig
from repro.graph.generators import gnm_random
from repro.graph.partition import partition_graph
from repro.obs import ORDER_DECISION, TraceRecorder
from repro.testing.oracles import reference_paths
from repro.utils.rng import derive_seed

BASE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
ALPHA = 1e-4  # same significance as the select-distribution suite

N = 240
DEGREE = 8
SHARDS = 4
FIXED_M = 24
STEPS = 300
GRAPH_SEED = 2011


def seed(*key) -> int:
    return derive_seed(BASE_SEED, "shard-conf", *key)


def _graph():
    return gnm_random(N, DEGREE, seed=GRAPH_SEED)


def _decisions(order: str, tag: str, *, max_steps: int = STEPS):
    """Replay-run *order* at fixed m; returns the order_decision payloads."""
    recorder = TraceRecorder()
    run(
        RunConfig(
            workload="replay",
            controller="fixed",
            m=FIXED_M,
            order=order,
            max_steps=max_steps,
        ),
        graph=_graph(),
        seed=seed(tag),
        recorder=recorder,
    )
    return [ev.data for ev in recorder.events if ev.kind == ORDER_DECISION]


def _shard_sizes() -> np.ndarray:
    graph = _graph()
    part = partition_graph(graph, SHARDS)
    return np.array(
        [len(part.members(graph, s)) for s in range(SHARDS)], dtype=float
    )


class TestLaunchConformance:
    def test_per_shard_launches_match_uniform_draw_proportions(self):
        decisions = _decisions(f"sharded:{SHARDS}", "launch")
        assert len(decisions) == STEPS
        observed = np.sum([d["launched"] for d in decisions], axis=0, dtype=float)
        sizes = _shard_sizes()
        expected = observed.sum() * sizes / sizes.sum()
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # aggregation over without-replacement rounds has sub-multinomial
        # variance, so this chi-square is conservative
        assert stats.chi2.sf(chi2, SHARDS - 1) > ALPHA

    def test_single_shard_round_counts_are_hypergeometric(self):
        decisions = _decisions(f"sharded:{SHARDS}", "hyper")
        counts = np.array([d["launched"][0] for d in decisions])
        n0 = int(_shard_sizes()[0])
        law = stats.hypergeom(N, n0, FIXED_M)
        # bin the support, merging thin tails so expected counts stay >= 5
        support = np.arange(law.support()[0], law.support()[1] + 1)
        pmf = law.pmf(support)
        observed, expected = [], []
        obs_acc = exp_acc = 0.0
        for value, p in zip(support, pmf):
            obs_acc += float(np.count_nonzero(counts == value))
            exp_acc += p * len(counts)
            if exp_acc >= 5.0:
                observed.append(obs_acc)
                expected.append(exp_acc)
                obs_acc = exp_acc = 0.0
        observed[-1] += obs_acc
        expected[-1] += exp_acc
        observed = np.array(observed)
        expected = np.array(expected)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, len(observed) - 1) > ALPHA


class TestCommitHomogeneity:
    def test_no_shard_is_systematically_disfavoured(self):
        decisions = _decisions(f"sharded:{SHARDS}", "commit")
        launched = np.sum([d["launched"] for d in decisions], axis=0, dtype=float)
        committed = np.sum([d["committed"] for d in decisions], axis=0, dtype=float)
        assert committed.sum() > 0 and np.all(launched > 0)
        expected = committed.sum() * launched / launched.sum()
        chi2 = float(((committed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, SHARDS - 1) > ALPHA

    def test_commit_rates_are_not_degenerate(self):
        decisions = _decisions(f"sharded:{SHARDS}", "commit")
        launched = np.sum([d["launched"] for d in decisions], axis=0, dtype=float)
        committed = np.sum([d["committed"] for d in decisions], axis=0, dtype=float)
        rates = committed / launched
        assert np.all(rates > 0.0) and np.all(rates < 1.0)


class TestAllCutDegeneracy:
    @pytest.mark.parametrize(
        "paths", [reference_paths, nullcontext], ids=["reference", "fast"]
    )
    def test_shards_ge_n_equals_unordered_step_stats(self, paths):
        # every edge cut -> phase 2 is the global greedy walk: exact, not
        # statistical, agreement in the per-step commit/abort sequence
        def steps(order):
            recorder = TraceRecorder()
            run(
                RunConfig(
                    workload="consuming",
                    rho=0.25,
                    m_max=64,
                    order=order,
                    max_steps=30,
                ),
                graph=gnm_random(60, 6, seed=GRAPH_SEED),
                seed=seed("degenerate"),
                recorder=recorder,
            )
            return [ev.data for ev in recorder.events if ev.kind == "step"]

        with paths():
            assert steps("sharded:60") == steps("unordered")
