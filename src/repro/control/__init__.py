"""Processor-allocation controllers: Algorithm 1 and baselines."""

from repro.control.adaptive import NoiseAdaptiveHybridController
from repro.control.aimd import AIMDController
from repro.control.asteal import AStealController
from repro.control.base import Controller, ControlTrace, clamp
from repro.control.bisection import BisectionController
from repro.control.fixed import FixedController
from repro.control.hybrid import HybridController, HybridParams
from repro.control.oracle import OracleController, mu_from_curve
from repro.control.pid import PIController
from repro.control.probing import ProbingHybridController
from repro.control.recurrence import (
    RecurrenceAController,
    RecurrenceBController,
    WindowedController,
)
from repro.control.tuning import (
    ControllerMetrics,
    evaluate_controller,
    oracle_mu,
    summarize_sweep,
    sweep_controllers,
)

__all__ = [
    "NoiseAdaptiveHybridController",
    "AIMDController",
    "AStealController",
    "Controller",
    "ControlTrace",
    "clamp",
    "BisectionController",
    "FixedController",
    "HybridController",
    "HybridParams",
    "OracleController",
    "mu_from_curve",
    "PIController",
    "ProbingHybridController",
    "RecurrenceAController",
    "RecurrenceBController",
    "WindowedController",
    "ControllerMetrics",
    "evaluate_controller",
    "oracle_mu",
    "summarize_sweep",
    "sweep_controllers",
]
