"""ORD — ordered algorithms (§5 future work) on the PDES workload."""

import numpy as np
import pytest

from repro.apps.des import DiscreteEventSimulation, QueueingNetwork
from repro.control.fixed import FixedController
from repro.experiments.runner import run_experiment
from repro.runtime.engine import make_engine


@pytest.fixture(scope="module")
def ord_result():
    return run_experiment("ordered", seed=0)


def _one_pdes_run():
    net = QueueingNetwork(40, avg_degree=3.0, seed=21)
    sim = DiscreteEventSimulation(net, num_jobs=60, end_time=20.0, seed=22)
    return make_engine(sim, FixedController(8), seed=23).run(max_steps=10**6)


def test_ordered_regeneration(ord_result, benchmark):
    benchmark.pedantic(_one_pdes_run, rounds=3, iterations=1)

    # ordered speedup saturates: octupling m from 16 to 128 buys < 40%
    s16 = ord_result.scalars["speedup_m16"]
    s128 = ord_result.scalars["speedup_m128"]
    assert s128 <= 1.4 * s16

    # the hybrid lands near the knee: most of the max speedup at modest m
    assert ord_result.scalars["hybrid_speedup"] >= 0.5 * ord_result.scalars["max_speedup"]


def test_ordered_speedup_monotone_then_flat(ord_result):
    name, ms, speedups = ord_result.series[0]
    arr = np.asarray(speedups)
    # early doublings help, the last ones don't
    assert arr[1] > arr[0]
    assert arr[-1] <= arr[-2] * 1.25


def test_order_aborts_dominate_at_high_m(ord_result):
    rows = ord_result.tables[0][2]
    by_m = {row[0]: row for row in rows}
    assert by_m[128][4] > by_m[4][4]  # order aborts climb with m
