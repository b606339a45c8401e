"""Experiment modules — one per paper figure/claim, plus ablations.

See DESIGN.md §4 for the experiment index.  Run them via::

    python -m repro.experiments <name> [--seed N] [--quick]
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.parallel import SweepOutcome, run_sweep

__all__ = ["ExperimentResult", "SweepOutcome", "run_sweep"]
