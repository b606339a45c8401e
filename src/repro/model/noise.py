"""Noise model of the conflict-ratio signal (§4.1's variance remarks).

The paper's implementation optimisations — the ``T``-step averaging
window, the dead-band ``α₁`` and the separate small-``m`` tuning — all
exist because the per-step realisation ``r_t`` is noisy, *especially when
m is small*.  This module makes that noise quantitative:

* each launched task aborts roughly independently with probability
  ``r̄(m)``, so a single step's realisation has
  ``std(r_t) ≈ sqrt(r(1−r)/m)`` and a ``T``-step window average has
  ``σ_w = sqrt(r(1−r)/(m·T))`` (validated against simulation in the
  tests; correlations between same-step tasks make it approximate);
* the dead-band is a hypothesis test: with threshold ``α₁`` the
  false-trigger probability on-target is ``2·Φ(−α₁·ρ/σ_w)``;
* inverting these gives principled parameter choices:
  :func:`suggest_deadband` (band wide enough for a target false-trigger
  rate) and :func:`suggest_period` (window long enough for a wanted
  band).

These formulas power :class:`repro.control.adaptive.NoiseAdaptiveHybridController`,
which re-derives its thresholds from the *current* allocation each window
— the principled version of the paper's hand-tuned small-``m`` split.
"""

from __future__ import annotations

import math

from repro.errors import ModelError

__all__ = [
    "window_std",
    "false_trigger_probability",
    "suggest_deadband",
    "suggest_period",
]


def window_std(r: float, m: int, period: int) -> float:
    """Predicted std of the ``period``-step window average of ``r_t``.

    Binomial approximation: ``sqrt(r(1−r)/(m·T))``.
    """
    if not 0.0 <= r <= 1.0:
        raise ModelError(f"conflict ratio {r} outside [0, 1]")
    if m < 1:
        raise ModelError(f"need m >= 1, got {m}")
    if period < 1:
        raise ModelError(f"need period >= 1, got {period}")
    return math.sqrt(r * (1.0 - r) / (m * period))


def false_trigger_probability(
    rho: float, alpha: float, m: int, period: int
) -> float:
    """P[window average leaves the dead-band | true ratio is exactly ρ].

    ``2·Φ(−α·ρ/σ_w)`` — the chance the controller updates when it should
    hold.
    """
    if not 0.0 < rho < 1.0:
        raise ModelError(f"target conflict ratio must be in (0,1), got {rho}")
    if alpha < 0:
        raise ModelError(f"dead-band alpha must be >= 0, got {alpha}")
    sigma = window_std(rho, m, period)
    if sigma == 0.0:
        return 0.0
    from scipy.stats import norm  # deferred: costs 0.75 s that run() never needs

    return float(2.0 * norm.cdf(-alpha * rho / sigma))


def suggest_deadband(rho: float, m: int, period: int, trigger_rate: float = 0.1) -> float:
    """Smallest dead-band ``α₁`` with on-target false triggers ≤ *trigger_rate*.

    ``α₁ = z_{1−rate/2} · σ_w / ρ``.
    """
    if not 0.0 < trigger_rate < 1.0:
        raise ModelError(f"trigger rate must be in (0,1), got {trigger_rate}")
    sigma = window_std(rho, m, period)
    from scipy.stats import norm  # deferred, see false_trigger_probability

    z = float(norm.ppf(1.0 - trigger_rate / 2.0))
    return z * sigma / rho


def suggest_period(
    rho: float, m: int, max_deadband: float, trigger_rate: float = 0.1
) -> int:
    """Shortest window ``T`` keeping the suggested dead-band ≤ *max_deadband*.

    Inverts :func:`suggest_deadband` for ``T``; the result is clamped to
    ``[1, 64]`` (a window longer than that stops being "rapid response").
    """
    if max_deadband <= 0:
        raise ModelError(f"max dead-band must be positive, got {max_deadband}")
    if not 0.0 < trigger_rate < 1.0:
        raise ModelError(f"trigger rate must be in (0,1), got {trigger_rate}")
    from scipy.stats import norm  # deferred, see false_trigger_probability

    z = float(norm.ppf(1.0 - trigger_rate / 2.0))
    t = (z / (max_deadband * rho)) ** 2 * rho * (1.0 - rho) / max(m, 1)
    return min(max(math.ceil(t), 1), 64)
