"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without intercepting unrelated built-in
exceptions.  Subsystems raise the most specific subclass that applies.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "GeneratorError",
    "ModelError",
    "ControllerError",
    "RuntimeEngineError",
    "WorksetEmptyError",
    "ConflictDetectionError",
    "ApplicationError",
    "GeometryError",
    "ConfigError",
    "RegistryError",
    "ExperimentError",
    "ObservabilityError",
    "ReplayMismatchError",
]


class ReproError(Exception):
    """Base class for all :mod:`repro` exceptions."""


class GraphError(ReproError):
    """Malformed operation on a :class:`~repro.graph.CCGraph`."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was not present in the graph."""

    def __init__(self, node: int):
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return f"node {self.node} not in graph"


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was not present in the graph."""

    def __init__(self, u: int, v: int):
        super().__init__((u, v))
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return f"edge ({self.u}, {self.v}) not in graph"


class GeneratorError(ReproError, ValueError):
    """Invalid parameters passed to a graph generator."""


class ModelError(ReproError):
    """Invalid parameters or state in the analytic model layer."""


class ControllerError(ReproError):
    """Invalid configuration or use of a processor-allocation controller."""


class RuntimeEngineError(ReproError):
    """Invalid configuration or state of the optimistic runtime."""


class WorksetEmptyError(RuntimeEngineError):
    """An element was requested from an empty work-set."""


class ConflictDetectionError(RuntimeEngineError):
    """A conflict-detection policy was used incorrectly."""


class ApplicationError(ReproError):
    """Failure inside one of the irregular applications."""


class GeometryError(ApplicationError):
    """Degenerate geometric configuration the predicates cannot resolve."""


class ConfigError(ReproError, ValueError):
    """A typed run/sweep configuration failed validation."""


class RegistryError(ReproError, ValueError):
    """Unknown, duplicate, or malformed plugin-registry entry."""


class ExperimentError(ReproError):
    """An experiment was invoked with invalid parameters."""


class ObservabilityError(ReproError):
    """Malformed trace, metric misuse, or invalid recorder state."""


class ReplayMismatchError(ObservabilityError):
    """A deterministic replay diverged from the recorded trajectory."""
