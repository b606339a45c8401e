"""Probe-then-allocate controller (extension of §4's smart start).

The paper notes that *if* an estimate of the CC graph's average degree is
available, the controller can start at the provably safe allocation of
Cor. 3 instead of crawling up from ``m₀ = 2``.  This controller obtains
that estimate *online* by inverting Prop. 2:

    r̄(2) = Δr̄(1) = d / 2(n−1)   ⇒   d̂ = 2(n−1) · r̂(2)

Phase 1 (probe): run at ``m = 2`` for ``probe_windows·T`` steps and
average the observed conflict ratio into ``r̂(2)``.
Phase 2 (jump): allocate ``safe_initial_m(n, d̂, ρ)`` — worst-case safe
by Thm. 2/3 even though only the density, not the structure, is known.
Phase 3: hand over to a plain :class:`HybridController` seeded at that
allocation.

Needs the work-set size ``n`` (known to any real runtime).  The probe
costs ``2·probe_windows·T`` task slots; for sparse graphs ``r̂(2)`` is a
rare-event estimate, so the jump conservatively floors ``d̂`` at
``d_min`` to avoid over-allocating off a few lucky windows.
"""

from __future__ import annotations

from repro.control.base import Controller, clamp
from repro.control.hybrid import HybridController, HybridParams
from repro.errors import ControllerError
from repro.model.turan import safe_initial_m

__all__ = ["ProbingHybridController"]


class ProbingHybridController(Controller):
    """Estimate density at m = 2, jump to the Cor.-3 safe m, then hybrid."""

    def __init__(
        self,
        rho: float,
        n: int,
        probe_windows: int = 8,
        probe_window_steps: int = 4,
        d_min: float = 1.0,
        m_min: int = 2,
        m_max: int = 1024,
        params: HybridParams | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 < rho < 1.0:
            raise ControllerError(f"target conflict ratio must be in (0,1), got {rho}")
        if n < 3:
            raise ControllerError(f"need work-set size n >= 3, got {n}")
        if probe_windows < 1 or probe_window_steps < 1:
            raise ControllerError(
                f"probe phase needs >= 1 window of >= 1 step, got "
                f"{probe_windows}×{probe_window_steps}"
            )
        if d_min <= 0:
            raise ControllerError(f"density floor must be positive, got {d_min}")
        if m_min < 1 or m_min > m_max:
            raise ControllerError(f"bad allocation range [{m_min}, {m_max}]")
        self.rho = float(rho)
        self.n = int(n)
        self.probe_steps = int(probe_windows * probe_window_steps)
        self.d_min = float(d_min)
        self.m_min = int(m_min)
        self.m_max = int(m_max)
        self.params = params or HybridParams()
        self.d_estimate: float | None = None
        self._do_reset()

    def _do_reset(self) -> None:
        self._probe_acc = 0.0
        self._probe_count = 0
        self._inner: HybridController | None = None
        self.d_estimate = None

    # ------------------------------------------------------------------
    def bind_observability(self, sink=None, metrics=None) -> None:
        super().bind_observability(sink, metrics)
        if self._inner is not None:
            self._inner.bind_observability(sink, metrics)

    def _next_m(self) -> int:
        if self._inner is not None:
            return self._inner.propose()
        return clamp(2, self.m_min, self.m_max)

    def _ingest(self, r: float, launched: int) -> None:
        if self._inner is not None:
            self._inner.observe(r, launched)
            return
        self._probe_acc += r
        self._probe_count += 1
        if self._probe_count < self.probe_steps:
            return
        r2 = self._probe_acc / self._probe_count
        # Prop. 2 inverted, floored against rare-event underestimation
        self.d_estimate = max(2.0 * (self.n - 1) * r2, self.d_min)
        d_capped = min(self.d_estimate, self.n - 1.0)
        m_start = safe_initial_m(self.n, d_capped, self.rho, m_min=self.m_min)
        self._inner = HybridController(
            self.rho,
            m0=clamp(m_start, self.m_min, self.m_max),
            m_min=self.m_min,
            m_max=self.m_max,
            params=self.params,
        )
        # the inner hybrid reports into the same sink/metrics (its decision
        # steps count from the handover, probe_steps after the run start)
        self._inner.bind_observability(self._sink, self._metrics)
        self._note_decision(
            "handover",
            r2,
            2,
            self._inner.current_m,
            d_estimate=self.d_estimate,
            probe_steps=self.probe_steps,
        )

    def describe(self) -> dict:
        return {
            "type": type(self).__name__,
            "rho": self.rho,
            "n": self.n,
            "probe_steps": self.probe_steps,
            "d_min": self.d_min,
            "m_min": self.m_min,
            "m_max": self.m_max,
            "params": self.params.as_dict(),
        }

    @classmethod
    def from_description(cls, fields: dict) -> "ProbingHybridController":
        fields = dict(fields)
        # only the product probe_windows x probe_window_steps matters
        fields["probe_windows"] = fields.pop("probe_steps")
        fields["params"] = HybridParams(**fields["params"])
        return cls(**fields, probe_window_steps=1)

    @property
    def probing(self) -> bool:
        """True while still in the m = 2 estimation phase."""
        return self._inner is None

    @property
    def current_m(self) -> int:
        if self._inner is not None:
            return self._inner.current_m
        return clamp(2, self.m_min, self.m_max)
