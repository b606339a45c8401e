"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import (
    derive_seed,
    ensure_rng,
    random_prefix,
    spawn,
    substream,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1 << 30, size=5)
        b = ensure_rng(7).integers(0, 1 << 30, size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert ensure_rng(g) is g

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1 << 30, size=8)
        b = ensure_rng(2).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)


class TestSpawn:
    def test_spawn_count(self):
        children = spawn(ensure_rng(0), 5)
        assert len(children) == 5

    def test_spawn_zero(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)

    def test_children_are_independent_streams(self):
        a, b = spawn(ensure_rng(0), 2)
        xa = a.integers(0, 1 << 30, size=16)
        xb = b.integers(0, 1 << 30, size=16)
        assert not np.array_equal(xa, xb)

    def test_spawn_deterministic_from_seed(self):
        xa = spawn(ensure_rng(3), 2)[0].integers(0, 1 << 30, size=4)
        xb = spawn(ensure_rng(3), 2)[0].integers(0, 1 << 30, size=4)
        assert np.array_equal(xa, xb)


class TestRandomPrefix:
    def test_prefix_length_and_membership(self):
        items = list(range(50))
        pre = random_prefix(items, 10, ensure_rng(0))
        assert pre.shape == (10,)
        assert set(pre.tolist()) <= set(items)
        assert len(set(pre.tolist())) == 10  # distinct

    def test_full_prefix_is_permutation(self):
        items = list(range(20))
        pre = random_prefix(items, 20, ensure_rng(1))
        assert sorted(pre.tolist()) == items

    def test_empty_prefix(self):
        assert random_prefix([1, 2, 3], 0, ensure_rng(0)).shape == (0,)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            random_prefix([1, 2], 3, ensure_rng(0))
        with pytest.raises(ValueError):
            random_prefix([1, 2], -1, ensure_rng(0))

    def test_uniformity_of_first_element(self):
        # each item should lead the prefix ~uniformly
        rng = ensure_rng(0)
        counts = np.zeros(4)
        for _ in range(4000):
            counts[random_prefix([0, 1, 2, 3], 2, rng)[0]] += 1
        assert counts.min() > 800  # expected 1000 each

    @given(st.integers(1, 30), st.data())
    def test_prefix_always_distinct(self, n, data):
        m = data.draw(st.integers(0, n))
        pre = random_prefix(list(range(n)), m, ensure_rng(0))
        assert len(set(pre.tolist())) == m


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "sweep", "fig2") == derive_seed(0, "sweep", "fig2")

    def test_keyed_not_sequential(self):
        # depends only on (seed, key path), not on prior derivations
        first = derive_seed(0, "a")
        derive_seed(0, "b")
        derive_seed(0, "c")
        assert derive_seed(0, "a") == first

    def test_distinct_across_key_parts_and_seeds(self):
        seeds = {
            derive_seed(0, "a"),
            derive_seed(0, "b"),
            derive_seed(0, "a", 0),
            derive_seed(0, "a", 1),
            derive_seed(1, "a"),
        }
        assert len(seeds) == 5

    def test_int_and_str_keys_compose(self):
        assert derive_seed(0, "step", 3) == derive_seed(0, "step", 3)
        assert derive_seed(0, "step", 3) != derive_seed(0, "step", "3")

    def test_returns_python_int_in_uint64_range(self):
        s = derive_seed(12345, "x")
        assert isinstance(s, int)
        assert 0 <= s < 2**64


class TestSubstream:
    def test_reproducible(self):
        a = substream(0, "ordered-step", 2).random(6)
        b = substream(0, "ordered-step", 2).random(6)
        assert np.array_equal(a, b)

    def test_independent_of_other_streams_draws(self):
        # draining one substream never shifts a sibling
        noisy = substream(0, "ordered-step", 0)
        noisy.random(1000)
        a = substream(0, "ordered-step", 1).random(6)
        b = substream(0, "ordered-step", 1).random(6)
        assert np.array_equal(a, b)

    def test_distinct_keys_give_distinct_streams(self):
        a = substream(0, "ordered-step", 0).random(8)
        b = substream(0, "ordered-step", 1).random(8)
        c = substream(0, "other", 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_returns_fresh_generator(self):
        a = substream(0, "k")
        b = substream(0, "k")
        assert isinstance(a, np.random.Generator)
        assert a is not b
