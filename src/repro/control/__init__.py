"""Processor-allocation controllers: Algorithm 1 and baselines.

Names are re-exported lazily, so a run imports only the controller it
was configured with (and that controller's model dependencies).
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "adaptive": ("NoiseAdaptiveHybridController",),
        "aimd": ("AIMDController",),
        "asteal": ("AStealController",),
        "base": ("Controller", "ControlTrace", "clamp"),
        "bisection": ("BisectionController",),
        "fixed": ("FixedController",),
        "hybrid": ("HybridController", "HybridParams"),
        "oracle": ("OracleController", "mu_from_curve"),
        "pid": ("PIController",),
        "probing": ("ProbingHybridController",),
        "recurrence": (
            "RecurrenceAController",
            "RecurrenceBController",
            "WindowedController",
        ),
        "tuning": (
            "ControllerMetrics",
            "evaluate_controller",
            "oracle_mu",
            "summarize_sweep",
            "sweep_controllers",
        ),
    },
)
