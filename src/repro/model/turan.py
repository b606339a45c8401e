"""Turán-style bounds on exploitable parallelism (§3).

* :func:`turan_bound` — Thm. 1 (strong/probabilistic Turán): the greedy
  maximal independent set over a random permutation has expected size at
  least ``n/(d+1)``.
* :func:`em_kdn` — Thm. 3's closed form for the worst-case family
  ``K_d^n`` (``s = n/(d+1)`` disjoint ``(d+1)``-cliques)::

      EM_m(K_d^n) = s · (1 − Π_{i=1}^{m} (n−d−i)/(n+1−i))

* :func:`mu_disjoint_cliques` — the exact optimum ``μ = max{m : r̄(m) ≤ ρ}``
  of a disjoint union of cliques, from the closed form above.
* :func:`worst_case_conflict_ratio` — the resulting upper bound on
  ``r̄(m)`` (Eq. 24), valid for *every* graph with the same ``n`` and
  average degree ``d`` by Thm. 2.
* :func:`worst_case_conflict_ratio_approx` — Cor. 2's large-``n``
  approximation ``1 − n/(m(d+1)) · [1 − (1−m/n)^{d+1}]``.
* :func:`alpha_conflict_bound` — Cor. 3: with ``m = α·n/(d+1)``,
  ``r̄ ≤ 1 − (1−e^{−α})/α`` (degree-free form).
* :func:`initial_derivative` — Prop. 2: ``Δr̄(1) = d/(2(n−1))`` exactly,
  for any graph.
* :func:`safe_initial_m` — inversion of Cor. 3 used to seed the controller
  (§4): the largest ``m`` whose worst-case conflict ratio stays ≤ ρ.
"""

from __future__ import annotations

import math

from repro.errors import ModelError
from repro.utils.stats import hypergeom_miss_probability

__all__ = [
    "turan_bound",
    "em_kdn",
    "em_disjoint_cliques",
    "mu_disjoint_cliques",
    "worst_case_conflict_ratio",
    "worst_case_conflict_ratio_approx",
    "alpha_conflict_bound",
    "alpha_conflict_bound_limit",
    "initial_derivative",
    "safe_initial_m",
    "predict_mu_linear",
]


def _check_nd(n: int, d: float) -> None:
    if n <= 0:
        raise ModelError(f"need n >= 1, got {n}")
    if d < 0 or d > n - 1:
        raise ModelError(f"average degree d={d} out of range [0, {n - 1}]")


def turan_bound(n: int, d: float) -> float:
    """Thm. 1 lower bound ``n/(d+1)`` on the expected greedy-MIS size."""
    _check_nd(n, d)
    return n / (d + 1.0)


def em_kdn(n: int, d: int, m: int) -> float:
    """Thm. 3 closed form ``EM_m(K_d^n)``.

    Requires integer ``d`` with ``(d+1) | n`` (the structure of ``K_d^n``).
    Each of the ``s`` cliques contributes one committed node iff the
    ``m``-sample hits it, so ``EM_m = s·(1 − P[clique untouched])`` with the
    hypergeometric miss probability of Eq. (26).
    """
    _check_nd(n, d)
    if not 0 <= m <= n:
        raise ModelError(f"m={m} out of range [0, {n}]")
    if n % (d + 1) != 0:
        raise ModelError(f"K_d^n needs (d+1) | n; got n={n}, d={d}")
    s = n // (d + 1)
    return s * (1.0 - hypergeom_miss_probability(n, d + 1, m))


def em_disjoint_cliques(sizes: "list[int] | tuple[int, ...]", m: int) -> float:
    """Exact ``EM_m`` for a disjoint union of cliques of arbitrary *sizes*.

    Generalises Thm. 3 beyond equal cliques (isolated nodes are cliques of
    size 1): each clique contributes one committed node iff the
    ``m``-sample hits it, so

        EM_m = Σ_k (1 − P[clique k missed])

    with the hypergeometric miss probability of Eq. (26) per clique.
    Example 1 and the synthetic profile graphs are special cases.
    """
    if any(s < 1 for s in sizes):
        raise ModelError(f"clique sizes must be >= 1, got {list(sizes)}")
    n = int(sum(sizes))
    if not 0 <= m <= n:
        raise ModelError(f"m={m} out of range [0, {n}]")
    return float(
        sum(1.0 - hypergeom_miss_probability(n, int(s), m) for s in sizes)
    )


def mu_disjoint_cliques(sizes: "list[int] | tuple[int, ...]", rho: float) -> int:
    """Exact ``μ = max{m : 1 − EM_m/m ≤ ρ}`` for a disjoint union of cliques.

    Bisection is valid as ``r̄`` is non-decreasing (Prop. 1); clamped
    below at 2 like :func:`~repro.control.oracle.mu_from_curve`.
    """
    if not 0.0 < rho < 1.0:
        raise ModelError(f"target conflict ratio must be in (0, 1), got {rho}")
    lo, hi = 1, int(sum(sizes))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 1.0 - em_disjoint_cliques(sizes, mid) / mid <= rho:
            lo = mid
        else:
            hi = mid - 1
    return max(lo, 2)


def worst_case_conflict_ratio(n: int, d: int, m: int) -> float:
    """Eq. (24): exact upper bound on ``r̄(m)`` over all ``(n, d)`` graphs."""
    if m <= 0:
        raise ModelError(f"conflict ratio needs m >= 1, got {m}")
    return 1.0 - em_kdn(n, d, m) / m


def worst_case_conflict_ratio_approx(n: int, d: float, m: int) -> float:
    """Cor. 2: large-``n`` approximation of the worst-case bound.

    Unlike :func:`worst_case_conflict_ratio`, this accepts fractional
    average degree and does not need ``(d+1) | n``.
    """
    _check_nd(n, d)
    if m <= 0:
        raise ModelError(f"conflict ratio needs m >= 1, got {m}")
    if m > n:
        raise ModelError(f"m={m} exceeds n={n}")
    frac = n / (m * (d + 1.0))
    return 1.0 - frac * (1.0 - (1.0 - m / n) ** (d + 1.0))


def alpha_conflict_bound(alpha: float, d: float) -> float:
    """Cor. 3, finite-``d`` form: bound at ``m = α·n/(d+1)``."""
    if alpha <= 0:
        raise ModelError(f"need alpha > 0, got {alpha}")
    if d < 0:
        raise ModelError(f"need d >= 0, got {d}")
    if alpha > d + 1:
        raise ModelError(f"alpha={alpha} exceeds d+1={d + 1} (m would exceed n)")
    return 1.0 - (1.0 - (1.0 - alpha / (d + 1.0)) ** (d + 1.0)) / alpha


def alpha_conflict_bound_limit(alpha: float) -> float:
    """Cor. 3, degree-free form ``1 − (1 − e^{−α})/α`` (d → ∞ limit).

    At ``α = 1/2`` this evaluates to ≈ 21.3%, the paper's smart-start
    guarantee for ``m = n/(2(d+1))``.
    """
    if alpha <= 0:
        raise ModelError(f"need alpha > 0, got {alpha}")
    return 1.0 - (1.0 - math.exp(-alpha)) / alpha


def initial_derivative(n: int, d: float) -> float:
    """Prop. 2: ``Δr̄(1) = d/(2(n−1))`` for any graph (exact)."""
    if n < 2:
        raise ModelError(f"initial derivative needs n >= 2, got {n}")
    _check_nd(n, d)
    return d / (2.0 * (n - 1.0))


def predict_mu_linear(n: int, d: float, rho: float, m_min: int = 2) -> int:
    """Linearity-based prediction of the optimum ``μ`` (Recurrence B's premise).

    Fig. 2's experimental fact: in the operating region the conflict ratio
    is ≈ linear with the Prop.-2 slope, ``r̄(m) ≈ m·d/2(n−1)``, so

        μ ≈ 2ρ(n−1)/d

    One application of Recurrence B from any ``(m, r)`` on a linear curve
    lands exactly here — this function is the closed-form of that jump.
    For the Fig.-2 families (random and clique-union graphs) the true
    curves bend *below* the linear extrapolation, so this prediction
    underestimates μ — a safe, slightly conservative starting point
    (empirically ``predict_mu_linear ≤ safe_initial_m ≤ μ`` there).
    """
    _check_nd(n, d)
    if not 0.0 < rho < 1.0:
        raise ModelError(f"target conflict ratio must be in (0, 1), got {rho}")
    if m_min < 1:
        raise ModelError(f"m_min must be >= 1, got {m_min}")
    if d == 0:
        return n  # conflict-free: use everything
    mu = int(round(2.0 * rho * (n - 1) / d))
    return min(max(mu, m_min), n)


def safe_initial_m(n: int, d: float, rho: float, m_min: int = 2) -> int:
    """Largest ``m`` whose Cor.-3 worst-case conflict ratio is ≤ ρ.

    The paper's smart start (§4): if an estimate of the average degree is
    available, start the controller at a provably safe allocation instead
    of ``m₀ = 2``.  Monotonicity of the bound in ``α`` makes bisection
    valid; the result is clamped to ``[m_min, n]``.
    """
    _check_nd(n, d)
    if not 0.0 < rho < 1.0:
        raise ModelError(f"target conflict ratio must be in (0, 1), got {rho}")
    if m_min < 1:
        raise ModelError(f"m_min must be >= 1, got {m_min}")

    def bound_at(m: int) -> float:
        return worst_case_conflict_ratio_approx(n, d, m)

    lo, hi = 1, n
    if bound_at(1) > rho:
        return max(m_min, 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if bound_at(mid) <= rho:
            lo = mid
        else:
            hi = mid - 1
    return min(max(lo, m_min), n)
