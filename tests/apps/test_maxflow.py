"""Tests for repro.apps.maxflow — preflow-push under speculation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.maxflow import FlowNetwork, PreflowPush, random_flow_network
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController
from repro.errors import ApplicationError
from repro.runtime.engine import make_engine
from repro.testing.oracles import reference_max_flow


def oversupplied_network(n: int, seed: int, extra_arcs: int = 8) -> FlowNetwork:
    """The catalog's random network plus seeded capacity-20 source arcs.

    Same recipe as ``benchmarks/e2e``'s ``maxflow_tinysteps`` input: the
    source emits more than the sink absorbs on every seed, so the surplus
    is relabelled back to the source in ~n² commits of tiny steps.
    """
    from repro.apps import build_app_input

    network = build_app_input("maxflow", n, seed=seed)
    rng = np.random.default_rng([seed, 0x51AC])
    inner = np.arange(1, n - 1)
    for v in rng.choice(inner, size=min(extra_arcs, len(inner)), replace=False):
        network.add_edge(network.source, int(v), 20)
    return network


class TestFlowNetwork:
    def test_add_edge_accumulates(self):
        net = FlowNetwork(3, 0, 2)
        net.add_edge(0, 1, 5)
        net.add_edge(0, 1, 3)
        assert net.capacity[0][1] == 8

    def test_reverse_arc_created(self):
        net = FlowNetwork(3, 0, 2)
        net.add_edge(0, 1, 5)
        assert net.capacity[1][0] == 0

    def test_validation(self):
        with pytest.raises(ApplicationError):
            FlowNetwork(1, 0, 0)
        with pytest.raises(ApplicationError):
            FlowNetwork(3, 0, 0)
        net = FlowNetwork(3, 0, 2)
        with pytest.raises(ApplicationError):
            net.add_edge(1, 1, 2)
        with pytest.raises(ApplicationError):
            net.add_edge(0, 1, -1)
        with pytest.raises(ApplicationError):
            net.add_edge(0, 9, 1)


class TestHandComputedFlows:
    def test_single_path(self):
        net = FlowNetwork(3, 0, 2)
        net.add_edge(0, 1, 7)
        net.add_edge(1, 2, 4)
        app = PreflowPush(net)
        make_engine(app, FixedController(2), seed=0).run(max_steps=10000)
        assert app.flow_value == 4
        assert app.check_conservation()

    def test_parallel_paths(self):
        net = FlowNetwork(4, 0, 3)
        net.add_edge(0, 1, 3)
        net.add_edge(1, 3, 3)
        net.add_edge(0, 2, 5)
        net.add_edge(2, 3, 2)
        app = PreflowPush(net)
        make_engine(app, FixedController(4), seed=1).run(max_steps=10000)
        assert app.flow_value == 5

    def test_classic_diamond(self):
        # cross edge enables rerouting: max flow = 2000 + min cross use
        net = FlowNetwork(4, 0, 3)
        net.add_edge(0, 1, 10)
        net.add_edge(0, 2, 10)
        net.add_edge(1, 3, 10)
        net.add_edge(2, 3, 10)
        net.add_edge(1, 2, 1)
        app = PreflowPush(net)
        make_engine(app, FixedController(3), seed=2).run(max_steps=10000)
        assert app.flow_value == 20

    def test_zero_flow_when_disconnected(self):
        net = FlowNetwork(4, 0, 3)
        net.add_edge(0, 1, 5)
        net.add_edge(2, 3, 5)
        app = PreflowPush(net)
        make_engine(app, FixedController(2), seed=3).run(max_steps=10000)
        assert app.flow_value == 0
        assert app.check_conservation()


class TestAgainstScipyOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_networks(self, seed):
        net = random_flow_network(60, avg_out_degree=3.0, seed=seed)
        ref = reference_max_flow(net)
        app = PreflowPush(net)
        make_engine(app, HybridController(0.25), seed=seed + 10).run(max_steps=10**6)
        assert app.flow_value == ref
        assert app.check_conservation()
        assert len(app.workset) == 0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 24))
    def test_property_any_seed_any_m(self, seed, m):
        net = random_flow_network(24, avg_out_degree=2.5, seed=seed)
        ref = reference_max_flow(net)
        app = PreflowPush(net)
        make_engine(app, FixedController(m), seed=seed).run(max_steps=10**6)
        assert app.flow_value == ref
        assert app.check_conservation()

    def test_no_frozen_nodes_on_valid_runs(self):
        net = random_flow_network(50, seed=9)
        app = PreflowPush(net)
        make_engine(app, FixedController(8), seed=10).run(max_steps=10**6)
        assert not app._frozen


class TestOversuppliedNetworks:
    """The long regime: surplus relabelled back to the source, ~n² commits."""

    #: (discharges, relabels) of the textbook discharge, taken before its
    #: arc scan was fused with the relabel scan; any change to what a
    #: discharge pushes, when it relabels or which tasks it creates moves
    #: the schedule and with it these counts
    COUNTS = {0: (846, 840), 1: (1002, 994), 2: (993, 1030)}

    @pytest.mark.parametrize("seed", sorted(COUNTS))
    def test_drains_to_the_max_flow_with_the_recorded_work(self, seed):
        net = oversupplied_network(40, seed)
        app = PreflowPush(net)
        make_engine(app, HybridController(0.25, m_max=64), seed=seed + 10).run(
            max_steps=10**6
        )
        assert len(app.workset) == 0
        assert app.discharges > 10 * net.num_nodes  # not the ~n-commit regime
        assert app.flow_value == reference_max_flow(net)
        assert app.check_conservation()
        assert not app._frozen
        assert (app.discharges, app.relabels) == self.COUNTS[seed]


class TestParallelStructure:
    def test_conflicts_under_wide_allocation(self):
        net = random_flow_network(120, avg_out_degree=4.0, seed=4)
        app = PreflowPush(net)
        res = make_engine(app, FixedController(32), seed=5).run(max_steps=10**6)
        assert res.total_aborted > 0
        assert app.flow_value == reference_max_flow(net)
