"""Reproducible random-number-generator plumbing.

All stochastic code in :mod:`repro` draws from :class:`numpy.random.Generator`
instances that are threaded explicitly through the call tree (never module
globals), so that every simulation, Monte-Carlo estimate and controller run is
reproducible from a single integer seed.  This module centralises the few
idioms we need:

* :func:`ensure_rng` — accept ``None`` / int seed / existing ``Generator``.
* :func:`spawn` — derive ``n`` statistically independent child generators,
  used to give each Monte-Carlo replica or parallel worker its own stream.
* :func:`derive_seed` / :func:`substream` — *keyed* substream derivation:
  a child seed/generator that is a pure function of ``(base seed, key
  path)``, independent of how much randomness anything else consumed.
  The ordered engine keys one substream per step, and the parallel sweep
  harness keys one per run config, so results never depend on scheduling.
* :func:`random_prefix` — sample a uniform random ``m``-prefix of a
  permutation of ``n`` items, the core sampling primitive of the paper's
  scheduler model (§2).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn",
    "derive_seed",
    "substream",
    "random_prefix",
]

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def ensure_rng(seed: "int | np.random.Generator | np.random.SeedSequence | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``Generator`` instances are passed through unchanged so callers can share
    a stream; anything else is fed to :func:`numpy.random.default_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* independent child generators from *rng*.

    Uses the generator's underlying bit generator ``spawn`` support (PCG64
    etc.), falling back to seeding children from fresh 64-bit draws when the
    bit generator cannot spawn (e.g. legacy generators).
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    try:
        return [np.random.Generator(bg) for bg in rng.bit_generator.spawn(n)]
    except (AttributeError, TypeError):  # pragma: no cover - legacy numpy
        seeds = rng.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]


def _key_part_to_entropy(part: "int | str") -> int:
    """Stable *positive* integer entropy for one key-path element.

    Strings hash via SHA-256 so the mapping is stable across processes
    and Python hash randomisation.  Integers map to odd values and
    strings to even ones, so ``3`` and ``"3"`` are distinct key parts;
    every part is nonzero because SeedSequence's entropy pool absorbs
    trailing zeros — ``(0, "a")`` and ``(0, "a", 0)`` must not collide.
    """
    if isinstance(part, (int, np.integer)):
        return (int(part) % (1 << 62)) * 2 + 1
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "little") % (1 << 62)) * 2 + 2


def _seed_sequence_for(seed: "int | np.random.SeedSequence | None", key: tuple) -> np.random.SeedSequence:
    """Build the :class:`~numpy.random.SeedSequence` for ``(seed, *key)``."""
    if isinstance(seed, np.random.SeedSequence):
        base = seed.entropy if seed.entropy is not None else 0
    else:
        base = seed if seed is not None else 0
    if isinstance(base, (int, np.integer)):
        entropy = [int(base) % (1 << 63)]
    else:
        entropy = list(base)
    entropy.extend(_key_part_to_entropy(part) for part in key)
    return np.random.SeedSequence(entropy)


def derive_seed(seed: "int | np.random.SeedSequence | None", *key: "int | str") -> int:
    """Deterministic 64-bit child seed for ``(seed, *key)``.

    The derivation is *keyed*, not sequential: the result depends only on
    the base seed and the key path (ints and strings), never on how many
    seeds were derived before.  Use it to hand stable seeds to parallel
    workers, per-step substreams, or cached run configs::

        derive_seed(0, "fig2", 3)   # always the same child seed
    """
    return int(_seed_sequence_for(seed, key).generate_state(1, np.uint64)[0])


def substream(seed: "int | np.random.SeedSequence | None", *key: "int | str") -> np.random.Generator:
    """A fresh :class:`~numpy.random.Generator` keyed by ``(seed, *key)``.

    Statistically independent across distinct key paths (SeedSequence
    entropy mixing) and reproducible regardless of draw counts elsewhere.
    """
    return np.random.default_rng(_seed_sequence_for(seed, key))


def random_prefix(items: Sequence[int], m: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a uniformly random ordered ``m``-prefix of a permutation.

    This realises the paper's ``π_m``: the scheduler draws ``m`` distinct
    nodes uniformly at random and the order of the draw is the commit order.
    Equivalent to taking the first ``m`` entries of a uniform permutation of
    *items*, but only O(m) memory is touched beyond the input copy.
    """
    arr = np.asarray(items, dtype=np.int64)
    n = arr.shape[0]
    if not 0 <= m <= n:
        raise ValueError(f"prefix length m={m} out of range [0, {n}]")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    # choice without replacement preserves draw order uniformity.
    idx = rng.choice(n, size=m, replace=False)
    return arr[idx]
