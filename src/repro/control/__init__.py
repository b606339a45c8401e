"""Processor-allocation controllers: Algorithm 1 and baselines.

Recurrences A and B (Eq. 32–33) are not classes of their own: they are
the :class:`HybridParams` presets :data:`RECURRENCE_A` and
:data:`RECURRENCE_B` of the one Algorithm 1 controller.

Names are re-exported lazily, so a run imports only the controller it
was configured with (and that controller's model dependencies).
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aimd": ("AIMDController",),
        "asteal": ("AStealController",),
        "base": ("Controller", "ControlTrace", "clamp"),
        "bisection": ("BisectionController",),
        "fixed": ("FixedController",),
        "hybrid": ("HybridController", "HybridParams", "RECURRENCE_A", "RECURRENCE_B"),
        "oracle": ("OracleController", "mu_from_curve"),
        "pid": ("PIController",),
        "tuning": (
            "ControllerMetrics",
            "evaluate_controller",
            "oracle_mu",
            "summarize_sweep",
            "sweep_controllers",
        ),
    },
)
