"""Distribution tests for batch selection (satellite of the select rework).

The scheduler model of §2 requires the m active tasks to be a *uniform*
ordered sample without replacement from the n pending ones — the ``π_m``
prefix distribution.  These tests pin that down statistically for both
selection backends and bit-exactly for the vectorised kernel:

* :func:`~repro.runtime.kernels.sample_prefix_draws` and
  :func:`~repro.runtime.kernels.scalar_prefix_draws` must reproduce the
  reference scalar draw loop bit for bit (values *and* generator state),
  the latter on every bit generator NumPy ships;
* chi-square uniformity over all ordered m-tuples (small n, exact
  multinomial) for both ``RandomWorkset`` and ``ActiveSet``;
* chi-square uniformity of unordered batch *membership* (every
  C(n, m) subset equally likely);
* the full-permutation case m = n.

Fixed seeds throughout; alpha is generous (1e-4) so the suite is stable
while still catching any real bias (a wrong bound in one draw shows up
as a chi-square statistic orders of magnitude past the threshold).
"""

import itertools
import math
import threading

import numpy as np
import pytest
from scipy import stats

from repro.runtime import kernels
from repro.runtime.active_set import ActiveSet
from repro.runtime.kernels import sample_prefix_draws, scalar_prefix_draws
from repro.runtime.task import Task
from repro.runtime.workset import RandomWorkset

BACKENDS = [RandomWorkset, ActiveSet]
ALPHA = 1e-4


def _batch_payloads(make_ws, n, m, rng):
    ws = make_ws()
    ws.add_all([Task(payload=i) for i in range(n)])
    return tuple(t.payload for t in ws.take(m, rng))


def _chi_square_uniform(counts, trials, num_outcomes):
    expected = trials / num_outcomes
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # outcomes never observed still contribute their expectation
    chi2 += (num_outcomes - len(counts)) * expected
    return stats.chi2.sf(chi2, df=num_outcomes - 1)


class TestKernelBitParity:
    """The vectorised kernel IS the reference draw loop, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 2011, 123456])
    def test_matches_scalar_loop_and_state(self, seed):
        for n, k in [(1, 1), (2, 1), (10, 10), (100, 3), (5000, 2500)]:
            ra = np.random.default_rng(seed)
            rb = np.random.default_rng(seed)
            vec = sample_prefix_draws(n, k, ra)
            ref = [int(rb.integers(0, n - i)) for i in range(k)]
            assert vec.tolist() == ref
            assert ra.bit_generator.state == rb.bit_generator.state

    def test_zero_draws(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = sample_prefix_draws(10, 0, rng)
        assert out.size == 0
        assert rng.bit_generator.state == state

    def test_bad_counts_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_prefix_draws(5, -1, rng)
        with pytest.raises(ValueError):
            sample_prefix_draws(5, 6, rng)


def same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` dicts (MT19937's key
    is an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


BIT_GENERATORS = [
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
    np.random.PCG64DXSM,
]


class TestScalarDrawParity:
    """The raw-stream draw IS ``rng.integers(0, n - i)``, bit for bit."""

    @staticmethod
    def pair(bit_generator, seed):
        ra = np.random.Generator(bit_generator(seed))
        rb = np.random.Generator(bit_generator(seed))
        return ra, rb

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("seed", [0, 2011])
    def test_matches_sequential_integers(self, bit_generator, seed):
        ra, rb = self.pair(bit_generator, seed)
        # n = 1 draws nothing; 2**31 + 1 rejects about half its words;
        # 2**32 - 1 is the last bound on the 32-bit path
        cases = [(1, 1), (2, 2), (7, 3), (100, 13), (5000, 40),
                 (2**31 + 1, 12), (2**32 - 1, 5)]
        for n, k in cases:
            ra.integers(0, 3), rb.integers(0, 3)  # odd word count: a buffered half-word
            drawn = scalar_prefix_draws(n, k, ra)
            assert drawn == [int(rb.integers(0, n - i)) for i in range(k)], (n, k)
            assert all(type(j) is int for j in drawn)
            assert same_state(ra.bit_generator.state, rb.bit_generator.state), (n, k)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_a_bound_of_one_consumes_nothing(self, bit_generator):
        rng = np.random.Generator(bit_generator(5))
        before = rng.bit_generator.state
        assert scalar_prefix_draws(1, 1, rng) == [0]
        assert scalar_prefix_draws(9, 0, rng) == []
        assert same_state(rng.bit_generator.state, before)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_bounds_of_two_to_the_32_go_to_numpy(self, bit_generator, monkeypatch):
        routed = []
        vector = kernels.sample_prefix_draws

        def counting(n, k, rng):
            routed.append(n)
            return vector(n, k, rng)

        monkeypatch.setattr(kernels, "sample_prefix_draws", counting)
        ra, rb = self.pair(bit_generator, 11)
        for n in (2**32 - 1, 2**32, 2**32 + 5, 2**40):
            drawn = scalar_prefix_draws(n, 3, ra)
            assert drawn == [int(rb.integers(0, n - i)) for i in range(3)]
            assert same_state(ra.bit_generator.state, rb.bit_generator.state)
        assert routed == [2**32, 2**32 + 5, 2**40]

    def test_the_generator_lock_is_held(self):
        rng = np.random.default_rng(3)
        out = []
        worker = threading.Thread(target=lambda: out.append(scalar_prefix_draws(50, 4, rng)))
        with rng.bit_generator.lock:
            worker.start()
            worker.join(timeout=0.2)
            assert worker.is_alive() and not out  # waiting for the lock
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert out == [scalar_prefix_draws(50, 4, np.random.default_rng(3))]

    def test_bad_counts_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            scalar_prefix_draws(5, -1, rng)
        with pytest.raises(ValueError):
            scalar_prefix_draws(5, 6, rng)


@pytest.mark.parametrize("make_ws", BACKENDS)
class TestPrefixDistribution:
    """Both backends realise the uniform π_m prefix distribution."""

    def test_ordered_tuples_uniform(self, make_ws):
        # n=5, m=2: 20 ordered outcomes, exact multinomial chi-square
        n, m, trials = 5, 2, 20000
        rng = np.random.default_rng(42)
        counts = {}
        for _ in range(trials):
            key = _batch_payloads(make_ws, n, m, rng)
            counts[key] = counts.get(key, 0) + 1
        num = math.perm(n, m)
        assert set(counts) <= set(itertools.permutations(range(n), m))
        assert _chi_square_uniform(counts, trials, num) > ALPHA

    def test_membership_uniform(self, make_ws):
        # n=6, m=3: C(6,3)=20 subsets, each hit with equal probability
        n, m, trials = 6, 3, 20000
        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(trials):
            key = tuple(sorted(_batch_payloads(make_ws, n, m, rng)))
            counts[key] = counts.get(key, 0) + 1
        num = math.comb(n, m)
        assert _chi_square_uniform(counts, trials, num) > ALPHA

    def test_full_permutation_uniform(self, make_ws):
        # m = n drains the set: every ordering of all n tasks equally likely
        n, trials = 4, 24000
        rng = np.random.default_rng(11)
        counts = {}
        for _ in range(trials):
            key = _batch_payloads(make_ws, n, n, rng)
            counts[key] = counts.get(key, 0) + 1
        num = math.factorial(n)
        assert _chi_square_uniform(counts, trials, num) > ALPHA

    def test_first_element_marginal_uniform(self, make_ws):
        # the head of the batch alone must be uniform over all n tasks
        n, trials = 10, 30000
        rng = np.random.default_rng(13)
        counts = {}
        for _ in range(trials):
            head = _batch_payloads(make_ws, n, 1, rng)[0]
            counts[head] = counts.get(head, 0) + 1
        assert _chi_square_uniform(counts, trials, n) > ALPHA


class TestBackendEquivalence:
    """The two backends draw literally the same batches under one seed."""

    @pytest.mark.parametrize("seed", [0, 5, 2011])
    def test_identical_batch_streams(self, seed):
        n = 40
        a, b = ActiveSet(), RandomWorkset()
        a.add_all([Task(payload=i) for i in range(n)])
        b.add_all([Task(payload=i) for i in range(n)])
        ra = np.random.default_rng(seed)
        rb = np.random.default_rng(seed)
        while a:
            ba = a.take(7, ra)
            bb = b.take(7, rb)
            assert [t.payload for t in ba] == [t.payload for t in bb]
        assert not b
        assert ra.bit_generator.state == rb.bit_generator.state
