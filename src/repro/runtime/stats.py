"""Per-step and per-run statistics of the optimistic engine.

The controller experiments (Fig. 3, §4.1) are read entirely off these
records: the trajectory ``m_t``, the realised conflict ratios ``r_t``, and
the committed/aborted work accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StepStats", "RunResult"]


@dataclass(frozen=True)
class StepStats:
    """One temporal step of the engine.

    ``requested`` is the controller's allocation ``m_t``; ``launched`` the
    number actually started (smaller only when the work-set ran short);
    ``conflict_ratio`` is the realisation ``r_t = aborted/launched``.
    """

    step: int
    requested: int
    launched: int
    committed: int
    aborted: int
    workset_before: int
    workset_after: int

    @property
    def conflict_ratio(self) -> float:
        return self.aborted / self.launched if self.launched else 0.0

    def as_dict(self) -> dict:
        """Plain-data form (trace events, JSONL recording)."""
        return {
            "step": self.step,
            "requested": self.requested,
            "launched": self.launched,
            "committed": self.committed,
            "aborted": self.aborted,
            "workset_before": self.workset_before,
            "workset_after": self.workset_after,
            "conflict_ratio": self.conflict_ratio,
        }


class RunResult:
    """Accumulated trace of one engine run."""

    def __init__(self) -> None:
        self.steps: list[StepStats] = []

    def append(self, s: StepStats) -> None:
        self.steps.append(s)

    def __len__(self) -> int:
        return len(self.steps)

    # ------------------------------------------------------------------
    # column views
    # ------------------------------------------------------------------
    @property
    def m_trace(self) -> np.ndarray:
        """Controller allocations ``m_t`` per step."""
        return np.array([s.requested for s in self.steps], dtype=np.int64)

    @property
    def r_trace(self) -> np.ndarray:
        """Realised conflict ratios ``r_t`` per step."""
        return np.array([s.conflict_ratio for s in self.steps], dtype=float)

    @property
    def committed_trace(self) -> np.ndarray:
        return np.array([s.committed for s in self.steps], dtype=np.int64)

    @property
    def workset_trace(self) -> np.ndarray:
        """Work-set size before each step."""
        return np.array([s.workset_before for s in self.steps], dtype=np.int64)

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    @property
    def total_committed(self) -> int:
        return int(sum(s.committed for s in self.steps))

    @property
    def total_aborted(self) -> int:
        return int(sum(s.aborted for s in self.steps))

    @property
    def total_launched(self) -> int:
        return int(sum(s.launched for s in self.steps))

    @property
    def wasted_fraction(self) -> float:
        """Fraction of speculative launches that were rolled back."""
        launched = self.total_launched
        return self.total_aborted / launched if launched else 0.0

    @property
    def mean_conflict_ratio(self) -> float:
        """Unweighted mean of the per-step realisations ``r_t``."""
        return float(self.r_trace.mean()) if self.steps else 0.0

    def processor_steps(self) -> int:
        """Σ_t launched_t — total processor-step budget consumed."""
        return self.total_launched

    def speedup_vs_serial(self) -> float:
        """Committed work per step relative to one task/step serially.

        A serial execution commits one task per step, so its makespan is
        ``total_committed``; ours is ``len(steps)``.
        """
        return self.total_committed / len(self.steps) if self.steps else 0.0

    def allocation_churn(self) -> float:
        """Mean |Δm| per step — the locality cost the dead-band suppresses.

        Every change of the allocation moves tasks (and their data)
        between processors; §4.1 motivates the dead-band precisely by
        this cost.  0 for a constant allocation.
        """
        ms = self.m_trace
        if len(ms) < 2:
            return 0.0
        return float(np.abs(np.diff(ms)).mean())

    def settling_step(
        self, target: float, band: float = 0.5, outlier_fraction: float = 0.1
    ) -> int:
        """Earliest step from which ``m_t`` essentially stays near *target*.

        Measures controller convergence (Fig. 3's "≈15 steps"): the first
        ``t`` such that over the remaining trace at most
        ``outlier_fraction`` of the steps leave
        ``[(1−band)·target, (1+band)·target]`` (the allowance absorbs the
        occasional noise-triggered excursion without declaring the run
        unsettled).  Returns ``len(steps)`` when no suffix qualifies.
        """
        if target <= 0:
            raise ValueError(f"settling target must be positive, got {target}")
        if band <= 0:
            raise ValueError(f"band must be positive, got {band}")
        if not 0.0 <= outlier_fraction < 1.0:
            raise ValueError(
                f"outlier fraction must be in [0, 1), got {outlier_fraction}"
            )
        ms = self.m_trace
        n = len(ms)
        if n == 0:
            return 0
        lo, hi = (1.0 - band) * target, (1.0 + band) * target
        outside = ((ms < lo) | (ms > hi)).astype(np.int64)
        suffix_out = np.concatenate((np.cumsum(outside[::-1])[::-1], [0]))
        for t in range(n):
            if suffix_out[t] <= outlier_fraction * (n - t) and outside[t] == 0:
                return t
        return n

    def __repr__(self) -> str:
        return (
            f"RunResult(steps={len(self.steps)}, committed={self.total_committed}, "
            f"aborted={self.total_aborted}, r̄={self.mean_conflict_ratio:.3f})"
        )
