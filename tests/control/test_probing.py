"""Tests for repro.control.probing — online density estimation."""

import pytest

from repro.control.probing import ProbingHybridController
from repro.errors import ControllerError
from repro.graph.generators import gnm_random
from repro.model.turan import safe_initial_m
from repro.runtime.workloads import ReplayGraphWorkload


class TestProbePhase:
    def test_probes_at_two(self):
        c = ProbingHybridController(0.2, n=1000, probe_windows=2, probe_window_steps=4)
        for _ in range(8):
            assert c.propose() == 2
            assert c.probing
            c.observe(0.0, 2)
        assert not c.probing

    def test_density_estimate_inverts_prop2(self):
        n, d = 1000, 16
        c = ProbingHybridController(0.2, n=n, probe_windows=4, probe_window_steps=4)
        r2 = d / (2 * (n - 1))
        for _ in range(16):
            c.propose()
            c.observe(r2, 2)
        assert c.d_estimate == pytest.approx(d, rel=1e-9)

    def test_jump_is_cor3_safe_m(self):
        n, d = 1000, 16
        c = ProbingHybridController(0.2, n=n, probe_windows=4, probe_window_steps=4)
        r2 = d / (2 * (n - 1))
        for _ in range(16):
            c.propose()
            c.observe(r2, 2)
        assert c.propose() == safe_initial_m(n, d, 0.2)

    def test_zero_conflicts_floors_density(self):
        c = ProbingHybridController(0.2, n=100, probe_windows=2, probe_window_steps=2, d_min=1.0)
        for _ in range(4):
            c.propose()
            c.observe(0.0, 2)
        assert c.d_estimate == 1.0
        assert c.propose() >= 2


class TestEndToEnd:
    def test_converges_on_real_graph(self):
        graph = gnm_random(1500, 16, seed=0)
        wl = ReplayGraphWorkload(graph)
        ctrl = ProbingHybridController(0.2, n=1500)
        eng = wl.make_engine(ctrl, seed=1)
        res = eng.run(max_steps=160)
        assert res.r_trace[80:].mean() == pytest.approx(0.2, abs=0.06)
        # the post-probe jump should land in the right decade immediately
        jump = res.m_trace[ctrl.probe_steps]
        assert 10 <= jump <= 200

    def test_reset(self):
        c = ProbingHybridController(0.2, n=100, probe_windows=1, probe_window_steps=1)
        c.propose()
        c.observe(0.1, 2)
        assert not c.probing
        c.reset()
        assert c.probing
        assert c.d_estimate is None


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ControllerError):
            ProbingHybridController(0.0, n=100)
        with pytest.raises(ControllerError):
            ProbingHybridController(0.2, n=2)
        with pytest.raises(ControllerError):
            ProbingHybridController(0.2, n=100, probe_windows=0)
        with pytest.raises(ControllerError):
            ProbingHybridController(0.2, n=100, d_min=0.0)
        with pytest.raises(ControllerError):
            ProbingHybridController(0.2, n=100, m_min=5, m_max=2)
