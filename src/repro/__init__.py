"""repro — processor allocation for optimistic parallelization of irregular programs.

A from-scratch reproduction of Versaci & Pingali (SPAA'11 brief announcement;
full version ICCSA 2012): the conflict-graph model of optimistic
parallelization, the Turán-style worst-case analysis of exploitable
parallelism, and the adaptive hybrid controller (Algorithm 1) that solves the
processor-allocation problem, together with the optimistic-runtime simulator
and the irregular applications needed to evaluate it.

Public API highlights
---------------------
``repro.graph``
    Dynamic computations/conflicts graphs and generators.
``repro.model``
    Conflict-ratio estimators, Turán bounds, unfriendly seating.
``repro.runtime``
    Discrete-time optimistic parallelization engine.
``repro.control``
    Processor-allocation controllers (hybrid Algorithm 1 + baselines).
``repro.apps``
    Irregular workloads: Delaunay refinement, Borůvka, colouring, clustering,
    survey propagation, synthetic profiles.
``repro.experiments``
    One module per paper figure/claim; CLI via ``python -m repro.experiments``.
"""

from repro._version import __version__
from repro.api import for_each, run
from repro.config import RunConfig
from repro.registry import register, registry

__all__ = [
    "__version__",
    "run",
    "for_each",
    "RunConfig",
    "register",
    "registry",
]
