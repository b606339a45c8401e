"""Algorithm 1 — the paper's hybrid processor-allocation controller.

The heuristic merges the two recurrences by the size of the relative error
``α = |1 − r/ρ|`` of the windowed conflict ratio ``r`` against the target
``ρ``:

* ``α > α₀`` (far from target) → **Recurrence B**, ``m ← ⌈(ρ/r)·m⌉`` with
  ``r`` floored at ``r_min`` — one aggressive jump exploiting the initial
  linearity of ``r̄(m)``;
* ``α₀ ≥ α > α₁`` (close) → **Recurrence A**, ``m ← ⌈(1−r+ρ)·m⌉`` — gentle
  noise-robust trimming;
* ``α ≤ α₁`` (dead-band) → no change, avoiding steady-state oscillation
  that would defeat locality (tasks hopping between processors).

The two recurrences on their own are presets of the same controller:
:data:`RECURRENCE_A` never takes the B branch (``α₀ = None``) and
:data:`RECURRENCE_B` always does (``α₀ = 0``); both have no dead-band
(``α₁ = 0``), so only a window reading exactly ``r = ρ`` holds.

Faithful to the pseudo-code with its published defaults
(``m₀=2, m_max=1024, m_min=2, T=4, r_min=3%, α₀=25%, α₁=6%``), plus the
two extensions the text describes but does not show:

* **small-m parameter set** — "for small values of m the variance is much
  bigger, so it is better to tune separately this case": below
  ``small_m_threshold`` an alternative (typically longer) window and wider
  dead-band apply (Fig. 3's caption: different parameters for m ≶ 20);
* **smart start** — Cor. 3 gives a provably safe initial allocation
  ``m₀ = n/(2(d+1))`` (conflict ratio ≤ 21.3%) when an estimate of the
  graph's average degree is available; see
  :func:`repro.model.turan.safe_initial_m` and :meth:`HybridController.smart_start`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.control.base import Controller, clamp
from repro.errors import ControllerError
from repro.model.turan import safe_initial_m

__all__ = ["HybridParams", "HybridController", "RECURRENCE_A", "RECURRENCE_B"]


@dataclass(frozen=True)
class HybridParams:
    """Window/threshold parameters of Algorithm 1 (one regime)."""

    period: int = 4  # T: steps averaged between updates
    r_min: float = 0.03  # floor for the measured ratio in Recurrence B
    alpha0: float | None = 0.25  # switch threshold: above -> B; None: never B
    alpha1: float = 0.06  # dead-band: below -> no update

    def validate(self) -> None:
        if self.period < 1:
            raise ControllerError(f"period must be >= 1, got {self.period}")
        if not 0.0 < self.r_min < 1.0:
            raise ControllerError(f"r_min must be in (0,1), got {self.r_min}")
        alpha0 = math.inf if self.alpha0 is None else self.alpha0
        if not 0.0 <= self.alpha1 <= alpha0:
            raise ControllerError(
                f"need 0 <= alpha1 <= alpha0, got alpha1={self.alpha1}, "
                f"alpha0={self.alpha0}"
            )

    def as_dict(self) -> dict:
        """Plain-data form (trace metadata / replay reconstruction)."""
        return {
            "period": self.period,
            "r_min": self.r_min,
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
        }


#: Recurrence A alone (Eq. 32): ``m ← ⌈(1 − r + ρ)·m⌉`` every window
RECURRENCE_A = HybridParams(alpha0=None, alpha1=0.0)
#: Recurrence B alone (Eq. 33): ``m ← ⌈(ρ / max(r, r_min))·m⌉`` every window
RECURRENCE_B = HybridParams(alpha0=0.0, alpha1=0.0)


class HybridController(Controller):
    """The paper's Algorithm 1 (see module docstring).

    Parameters
    ----------
    rho:
        Target conflict ratio ρ (Remark 1: 20–30% is reasonable; ρ = 0
        would collapse the allocation to one processor).
    m0, m_min, m_max:
        Initial allocation and clamps (paper defaults 2, 2, 1024).
    params:
        Thresholds/window for the normal regime.
    small_params, small_m_threshold:
        Optional alternative regime used while ``m < small_m_threshold``
        (``None`` disables the split).
    """

    def __init__(
        self,
        rho: float,
        m0: int = 2,
        m_min: int = 2,
        m_max: int = 1024,
        params: HybridParams | None = None,
        small_params: HybridParams | None = None,
        small_m_threshold: int = 20,
    ) -> None:
        super().__init__()
        if not 0.0 < rho < 1.0:
            raise ControllerError(f"target conflict ratio must be in (0,1), got {rho}")
        if m_min < 1:
            raise ControllerError(f"m_min must be >= 1, got {m_min}")
        if m_min > m_max:
            raise ControllerError(f"empty allocation range [{m_min}, {m_max}]")
        self.rho = float(rho)
        self.m0 = int(m0)
        self.m_min = int(m_min)
        self.m_max = int(m_max)
        self.params = params or HybridParams()
        self.params.validate()
        if small_params is not None:
            small_params.validate()
            if small_m_threshold < 1:
                raise ControllerError(
                    f"small_m_threshold must be >= 1, got {small_m_threshold}"
                )
        self.small_params = small_params
        self.small_m_threshold = int(small_m_threshold)
        self.updates: list[tuple[int, str, float, int]] = []  # (step, rule, r, new m)
        self._step = 0
        self._do_reset()

    # ------------------------------------------------------------------
    @classmethod
    def smart_start(
        cls, rho: float, n: int, avg_degree: float, **kwargs
    ) -> "HybridController":
        """Construct with the Cor.-3 safe initial allocation.

        With ``m₀ = n/(2(d+1))`` the worst-case conflict ratio is ≤ 21.3%,
        so the controller skips the slow climb from ``m₀ = 2``.
        """
        m0 = safe_initial_m(n, avg_degree, rho)
        return cls(rho, m0=m0, **kwargs)

    # ------------------------------------------------------------------
    def _do_reset(self) -> None:
        self._m = clamp(self.m0, self.m_min, self.m_max)
        self._acc = 0.0
        self._count = 0
        self._step = 0
        self.updates = []

    def _active_params(self) -> HybridParams:
        if self.small_params is not None and self._m < self.small_m_threshold:
            return self.small_params
        return self.params

    def _next_m(self) -> int:
        return self._m

    def _ingest(self, r: float, launched: int) -> None:
        self._step += 1
        p = self._active_params()
        self._acc += r
        self._count += 1
        if self._count < p.period:
            return
        avg = self._acc / p.period
        self._acc = 0.0
        self._count = 0
        alpha = abs(1.0 - avg / self.rho)
        if p.alpha0 is not None and alpha > p.alpha0:
            effective = max(avg, p.r_min)
            new_m = self._clamped((self.rho / effective) * self._m, self.m_min, self.m_max)
            rule = "B"
        elif alpha > p.alpha1:
            new_m = self._clamped((1.0 - avg + self.rho) * self._m, self.m_min, self.m_max)
            rule = "A"
        else:
            new_m = self._m
            rule = "hold"
        self.updates.append((self._step, rule, avg, new_m))
        self._note_decision(
            rule,
            avg,
            self._m,
            new_m,
            alpha=alpha,
            alpha0=p.alpha0,
            alpha1=p.alpha1,
            regime="small" if p is self.small_params else "normal",
        )
        self._m = new_m

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "type": type(self).__name__,
            "rho": self.rho,
            "m0": self.m0,
            "m_min": self.m_min,
            "m_max": self.m_max,
            "params": self.params.as_dict(),
            "small_params": (
                None if self.small_params is None else self.small_params.as_dict()
            ),
            "small_m_threshold": self.small_m_threshold,
        }

    @classmethod
    def from_description(cls, fields: dict) -> "HybridController":
        small = fields.get("small_params")
        return cls(
            **{
                **fields,
                "params": HybridParams(**fields["params"]),
                "small_params": None if small is None else HybridParams(**small),
            }
        )

    @property
    def current_m(self) -> int:
        """The allocation the next :meth:`propose` will return."""
        return self._m
