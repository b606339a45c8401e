"""Finite differences (discrete derivatives) as used throughout §3.

The paper defines the *i*-th forward finite difference recursively::

    Δ⁰_f(k) = f(k)
    Δⁱ_f(k) = Δ^{i-1}_f(k+1) − Δ^{i-1}_f(k)

We provide both a functional form operating on callables and a vectorised
form operating on sampled arrays, plus the standard binomial expansion

    Δⁱ_f(k) = Σ_{j=0}^{i} (-1)^{i-j} C(i, j) f(k + j)

which the tests cross-check against the recursive definition.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

__all__ = [
    "forward_difference",
    "forward_difference_array",
    "binomial_difference",
    "is_nondecreasing",
    "is_convex",
]


def forward_difference(f: Callable[[int], float], k: int, order: int = 1) -> float:
    """Evaluate ``Δ^order_f(k)`` by the recursive definition.

    ``order=0`` returns ``f(k)`` itself.  The recursion is expanded
    iteratively (each level needs one more point to the right), so the
    callable is evaluated at ``k, k+1, ..., k+order`` exactly once each.
    """
    if order < 0:
        raise ValueError(f"difference order must be >= 0, got {order}")
    values = np.array([f(k + j) for j in range(order + 1)], dtype=float)
    for _ in range(order):
        values = np.diff(values)
    return float(values[0])


def forward_difference_array(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Vectorised ``Δ^order`` over a sampled array ``values[k] = f(k)``.

    Returns an array of length ``max(len(values) − order, 0)`` — empty when
    there are too few samples, which makes downstream "all(...)" style
    predicates vacuously true on short inputs.
    """
    if order < 0:
        raise ValueError(f"difference order must be >= 0, got {order}")
    arr = np.asarray(values, dtype=float)
    if order >= arr.shape[0]:
        return np.empty(0, dtype=float)
    return np.diff(arr, n=order) if order else arr.copy()


def binomial_difference(f: Callable[[int], float], k: int, order: int = 1) -> float:
    """Evaluate ``Δ^order_f(k)`` via the binomial expansion (closed form)."""
    if order < 0:
        raise ValueError(f"difference order must be >= 0, got {order}")
    total = 0.0
    for j in range(order + 1):
        total += (-1) ** (order - j) * math.comb(order, j) * f(k + j)
    return float(total)


def is_nondecreasing(values: np.ndarray, atol: float = 0.0) -> bool:
    """True iff the sampled sequence is non-decreasing up to tolerance."""
    diffs = forward_difference_array(values, 1)
    return bool(np.all(diffs >= -atol)) if diffs.size else True


def is_convex(values: np.ndarray, atol: float = 0.0) -> bool:
    """True iff the sampled sequence is (discretely) convex up to tolerance."""
    if len(values) < 3:
        return True
    second = forward_difference_array(values, 2)
    return bool(np.all(second >= -atol))
