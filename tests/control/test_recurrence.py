"""Tests for Recurrences A and B (Eq. 32–33) as Algorithm 1 presets.

``RECURRENCE_A`` / ``RECURRENCE_B`` are :class:`HybridParams` values, so
the standalone recurrences run through :class:`HybridController`.  A
frozen copy of the update rules they replaced pins the equivalence: on
any observation stream whose windows never read exactly ``r = ρ`` the
preset's ``m`` trace equals the oracle's.  On such a window the preset
holds ``m``, which is the one intended difference.
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro import RunConfig
from repro.control.base import clamp
from repro.control.hybrid import (
    RECURRENCE_A,
    RECURRENCE_B,
    HybridController,
    HybridParams,
)
from repro.errors import ControllerError


def rec_a(rho, period=4, **kwargs):
    return HybridController(rho, params=replace(RECURRENCE_A, period=period), **kwargs)


def rec_b(rho, period=4, r_min=0.03, **kwargs):
    params = replace(RECURRENCE_B, period=period, r_min=r_min)
    return HybridController(rho, params=params, **kwargs)


class FrozenRecurrence:
    """Test-only copy of the standalone Eq. 32 / Eq. 33 update rules.

    Averages ``r`` over ``period`` steps, then sets
    ``m ← ⌈(1 − r + ρ)·m⌉`` (A) or ``m ← ⌈(ρ / max(r, r_min))·m⌉`` (B),
    clamped into ``[m_min, m_max]``, on every window without exception.
    """

    def __init__(self, rule, rho, m0=2, m_min=2, m_max=1024, period=4, r_min=0.03):
        self.rule, self.rho, self.r_min, self.period = rule, rho, r_min, period
        self.m_min, self.m_max = m_min, m_max
        self.m = clamp(m0, m_min, m_max)
        self.acc, self.count = 0.0, 0
        self.windows = []  # averaged r of every completed window

    def observe(self, r):
        self.acc += r
        self.count += 1
        if self.count < self.period:
            return
        avg = self.acc / self.period
        self.windows.append(avg)
        if self.rule == "A":
            raw = (1.0 - avg + self.rho) * self.m
        else:
            raw = (self.rho / max(avg, self.r_min)) * self.m
        self.m = clamp(raw, self.m_min, self.m_max)
        self.acc, self.count = 0.0, 0


def drive(controller, r_values):
    """Feed a sequence of conflict ratios; return the m before each step."""
    out = []
    for r in r_values:
        m = controller.propose()
        controller.observe(r, m)
        out.append(m)
    return out


def oracle_trace(oracle, r_values):
    out = []
    for r in r_values:
        out.append(oracle.m)
        oracle.observe(r)
    return out


#: observed conflict ratios are k/m: aborted tasks over launched tasks
fractions = st.integers(1, 64).flatmap(
    lambda m: st.integers(0, m).map(lambda k: k / m)
)


class TestFrozenOracleParity:
    @settings(max_examples=200, deadline=None)
    @given(
        rule=st.sampled_from(["A", "B"]),
        rho=st.integers(1, 19).map(lambda k: k / 20),
        m0=st.integers(1, 2000),
        m_min=st.integers(1, 40),
        span=st.integers(0, 1500),
        period=st.integers(1, 6),
        r_min=st.sampled_from([1e-6, 0.01, 0.03, 0.1, 0.5]),
        rs=st.lists(fractions, min_size=1, max_size=80),
    )
    def test_preset_matches_frozen_rule(
        self, rule, rho, m0, m_min, span, period, r_min, rs
    ):
        kwargs = dict(m0=m0, m_min=m_min, m_max=m_min + span, period=period)
        oracle = FrozenRecurrence(rule, rho, r_min=r_min, **kwargs)
        expected = oracle_trace(oracle, rs)
        assume(all(avg / rho != 1.0 for avg in oracle.windows))
        preset = rec_a(rho, **kwargs) if rule == "A" else rec_b(rho, r_min=r_min, **kwargs)
        assert drive(preset, rs) == expected
        assert preset.propose() == oracle.m
        assert {u[1] for u in preset.updates} <= {rule}

    @pytest.mark.parametrize("make", [rec_a, rec_b], ids=["A", "B"])
    def test_window_exactly_at_rho_holds(self, make):
        c = make(0.25, m0=40, period=2)
        drive(c, [0.0, 0.5])  # window average 0.25 == rho
        assert c.propose() == 40
        assert [u[1] for u in c.updates] == ["hold"]

    def test_rho_below_r_min(self):
        """Below the floor B still jumps by ρ/r_min, except at exactly ρ."""
        c = rec_b(0.02, m0=90, period=1, r_min=0.03)
        oracle = FrozenRecurrence("B", 0.02, m0=90, period=1, r_min=0.03)
        drive(c, [0.0])
        oracle.observe(0.0)
        m = c.propose()
        assert m == oracle.m == math.ceil(0.02 / 0.03 * 90) < 90
        drive(c, [0.02])  # exactly at rho: the preset holds, the old rule shrank
        oracle.observe(0.02)
        assert c.propose() == m
        assert oracle.m == math.ceil(0.02 / 0.03 * m) < m


class TestPresets:
    def test_never_b_is_none(self):
        assert RECURRENCE_A.alpha0 is None and RECURRENCE_A.alpha1 == 0.0
        assert RECURRENCE_B.alpha0 == RECURRENCE_B.alpha1 == 0.0
        HybridParams(alpha0=None).validate()

    @pytest.mark.parametrize(
        "name, preset",
        [("recurrence-a", RECURRENCE_A), ("recurrence-b", RECURRENCE_B)],
        ids=["recurrence-a", "recurrence-b"],
    )
    def test_registry_builds_the_preset(self, name, preset):
        c = repro.registry("controller").create(name, RunConfig(rho=0.3, m_max=64))
        assert type(c) is HybridController and c.params is preset
        assert (c.rho, c.m_max) == (0.3, 64)
        description = c.describe()
        text = json.dumps(description, allow_nan=False)  # no Infinity
        fields = {k: v for k, v in json.loads(text).items() if k != "type"}
        assert HybridController.from_description(fields).describe() == description


class TestWindowing:
    def test_updates_only_every_period(self):
        c = rec_a(0.2, period=4)
        ms = drive(c, [0.0] * 8)
        assert ms[:4] == [2, 2, 2, 2]  # unchanged within window
        assert ms[4] > 2  # updated after the first window

    def test_period_one_updates_each_step(self):
        c = rec_a(0.2, period=1)
        ms = drive(c, [0.0, 0.0])
        assert ms[1] > ms[0]

    def test_average_is_used(self):
        # window [0, 0.4]: average 0.2 == rho -> hold
        c = rec_a(0.2, m0=10, period=2)
        drive(c, [0.0, 0.4])
        assert c.propose() == 10


class TestRecurrenceA:
    def test_update_formula(self):
        # avg r = 0 -> m <- ceil((1 + rho) m)
        c = rec_a(0.25, m0=8, period=1)
        drive(c, [0.0])
        assert c.propose() == math.ceil(1.25 * 8)

    def test_decreases_when_over_target(self):
        c = rec_a(0.2, m0=100, period=1)
        drive(c, [0.8])
        assert c.propose() == math.ceil((1 - 0.8 + 0.2) * 100)

    def test_growth_bounded_by_one_plus_rho(self):
        """A's fundamental slowness: per-window growth ≤ 1 + ρ."""
        c = rec_a(0.2, m0=2, period=1)
        prev = 2
        for _ in range(20):
            m = c.propose()
            assert m <= math.ceil((1 + 0.2) * prev) + 1
            prev = m
            c.observe(0.0, m)

    def test_clamps(self):
        c = rec_a(0.3, m0=1000, m_max=64, period=1)
        assert c.propose() == 64

    def test_reset(self):
        c = rec_a(0.2, m0=2, period=1)
        drive(c, [0.0] * 10)
        c.reset()
        assert c.propose() == 2


class TestRecurrenceB:
    def test_update_formula(self):
        c = rec_b(0.2, m0=10, period=1)
        drive(c, [0.05])
        assert c.propose() == math.ceil(0.2 / 0.05 * 10)

    def test_rmin_floor_prevents_explosion(self):
        c = rec_b(0.2, m0=10, period=1, r_min=0.03)
        drive(c, [0.0])
        # without the floor this would divide by zero; with it: 0.2/0.03
        assert c.propose() == math.ceil(0.2 / 0.03 * 10)

    def test_geometric_convergence_on_linear_plant(self):
        """On a linear r̄(m) = m/500 plant, B lands in one window."""
        c = rec_b(0.2, m0=2, period=1)
        m = c.propose()
        for _ in range(6):
            r = min(m / 500.0, 1.0)
            c.observe(r, m)
            m = c.propose()
        assert m == pytest.approx(100, rel=0.1)  # mu = 0.2*500

    def test_faster_than_a_from_cold_start(self):
        plant = lambda m: min(m / 500.0, 1.0)
        a = rec_a(0.2, m0=2, period=1)
        b = rec_b(0.2, m0=2, period=1)
        for ctrl in (a, b):
            for _ in range(8):
                m = ctrl.propose()
                ctrl.observe(plant(m), m)
        assert b.propose() > a.propose()

    def test_validation(self):
        with pytest.raises(ControllerError):
            rec_b(0.2, r_min=0.0)
        with pytest.raises(ControllerError):
            rec_b(0.2, r_min=1.0)


class TestSharedValidation:
    def test_rho_bounds(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ControllerError):
                rec_a(bad)

    def test_period_bounds(self):
        with pytest.raises(ControllerError):
            rec_a(0.2, period=0)

    def test_range_bounds(self):
        with pytest.raises(ControllerError):
            rec_a(0.2, m_min=0)
        with pytest.raises(ControllerError):
            rec_a(0.2, m_min=10, m_max=5)

    def test_m0_clamped_into_range(self):
        c = rec_a(0.2, m0=1, m_min=2)
        assert c.propose() == 2
