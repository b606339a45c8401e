"""Bit parity of :func:`repro.runtime.kernels.sample_choice_rows`.

The kernel stands in for ``rows`` sequential
``rng.choice(pool, size=k, replace=False)`` calls, so it is held to
exactly those calls: the same rows *and* the same ``bit_generator.state``
afterwards, on every bit generator NumPy ships, from a state holding a
buffered half-word, and on both sides of every route switch (few rows,
wide rows, NumPy's tail shuffle, pools of ``2**32`` or more).
"""

import numpy as np
import pytest

from repro.runtime import kernels
from repro.runtime.kernels import sample_choice_rows
from tests.runtime.test_select_distribution import BIT_GENERATORS, same_state


def sequential(pool, k, rows, rng):
    return [rng.choice(pool, size=k, replace=False).tolist() for _ in range(rows)]


def pair(bit_generator, seed):
    return (
        np.random.Generator(bit_generator(seed)),
        np.random.Generator(bit_generator(seed)),
    )


def assert_parity(pool, k, rows, ra, rb):
    got = sample_choice_rows(pool, k, rows, ra)
    assert got.shape == (rows, k) and got.dtype == np.int64
    assert got.tolist() == sequential(pool, k, rows, rb), (pool, k, rows)
    assert same_state(ra.bit_generator.state, rb.bit_generator.state), (pool, k, rows)


class TestChoiceRowParity:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("seed", [0, 2011])
    def test_matches_sequential_choice(self, bit_generator, seed):
        ra, rb = pair(bit_generator, seed)
        cases = [
            (2999, 8, 96),  # the regenerating workload's shape
            (2999, 8, 7),  # the first vectorised row count at k = 8
            (9, 9, 40),  # k = pool: every row a permutation
            (9, 1, 12),
            (1, 1, 12),  # pool 1: one draw of bound 1, which consumes nothing
            (50, 0, 12),  # k = 0 draws nothing
            (30, 20, 60),  # most rows repeat a raw draw
            (10001, 32, 20),  # the widest vectorised row
            (20000, 400, 3),  # the last Floyd k at pool 20000 ...
            (20000, 401, 3),  # ... and the first tail-shuffle k
            (5, 3, 0),
        ]
        for pool, k, rows in cases:
            ra.integers(0, 3), rb.integers(0, 3)  # odd word count: a buffered half-word
            assert_parity(pool, k, rows, ra, rb)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_zero_columns_leave_the_generator_alone(self, bit_generator):
        rng = np.random.Generator(bit_generator(5))
        before = rng.bit_generator.state
        assert sample_choice_rows(50, 0, 64, rng).shape == (64, 0)
        assert sample_choice_rows(0, 0, 64, rng).shape == (64, 0)
        assert sample_choice_rows(1, 1, 64, rng).tolist() == [[0]] * 64
        assert same_state(rng.bit_generator.state, before)

    def test_rows_are_samples_without_replacement(self):
        rows = sample_choice_rows(12, 12, 500, np.random.default_rng(1))
        assert (np.sort(rows, axis=1) == np.arange(12)).all()


class TestChoiceRowRoutes:
    """Which calls run where: counted, not timed."""

    @staticmethod
    def counting():
        calls = {"choice": 0, "integers": 0}

        class Counting(np.random.Generator):
            def choice(self, *args, **kwargs):
                calls["choice"] += 1
                return super().choice(*args, **kwargs)

            def integers(self, *args, **kwargs):
                calls["integers"] += 1
                return super().integers(*args, **kwargs)

        return Counting(np.random.PCG64(3)), calls

    @pytest.mark.parametrize(
        "pool, k, rows, vectorised",
        [
            (2999, 8, 6, False),  # below the cut-over at k = 8
            (2999, 8, 7, True),
            (2999, 1, 4, False),
            (2999, 1, 5, True),
            (2999, 32, 13, True),
            (2999, 33, 500, False),  # wider than the vectorised pass pays
            (20000, 400, 500, False),  # above the column cap too
            (20000, 8, 500, True),
            (2**32 - 1, 4, 8, True),
            (2**32, 4, 8, False),  # the 64-bit bounded draw
            (2**40, 4, 8, False),
        ],
    )
    def test_route(self, pool, k, rows, vectorised):
        rng, calls = self.counting()
        rb = np.random.Generator(np.random.PCG64(3))
        assert kernels._choice_rows_vectorised(pool, k, rows) is vectorised
        assert_parity(pool, k, rows, rng, rb)
        want = {"choice": 0, "integers": 1} if vectorised else {"choice": rows, "integers": 0}
        assert calls == want

    def test_tail_shuffle_regime_stays_on_choice(self, monkeypatch):
        """NumPy shuffles the pool's tail above pool 10000 when k > pool // 50;
        with the column cap raised, only that switch keeps such rows off
        the vectorised pass."""
        monkeypatch.setattr(kernels, "_CHOICE_MAX_COLUMNS", 1000)
        assert kernels._choice_rows_vectorised(20000, 400, 500)
        assert not kernels._choice_rows_vectorised(20000, 401, 500)
        assert kernels._choice_rows_vectorised(10000, 1000, 500)  # Floyd up to 10000
        for k in (400, 401):
            ra, rb = pair(np.random.PCG64, k)
            assert_parity(20000, k, 300, ra, rb)
        # and the switch is needed: Floyd's pass is not what NumPy draws there
        monkeypatch.setattr(kernels, "_CHOICE_FLOYD_POOL", 2**40)
        ra, rb = pair(np.random.PCG64, 401)
        assert sample_choice_rows(20000, 401, 300, ra).tolist() != sequential(20000, 401, 300, rb)


class TestChoiceRowErrors:
    @pytest.mark.parametrize("rows", [1, 64])
    def test_bad_counts_raise(self, rows):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="from a pool of 5"):
            sample_choice_rows(5, 6, rows, rng)
        with pytest.raises(ValueError, match="cannot draw -1"):
            sample_choice_rows(5, -1, rows, rng)
        assert rng.bit_generator.state == before
