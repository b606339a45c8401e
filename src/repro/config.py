"""Typed run configuration: frozen, validated, JSON round-trippable.

Before this layer, experiment invocations travelled as ad-hoc strings
and loose kwargs threaded through ``api.py``, the CLI, and the sweep
harness.  :class:`RunConfig` replaces that:

* **a frozen dataclass** — a config is a value; hash it, compare it,
  put it in a cache key;
* **validation at construction** — bad values (``rho`` outside ``(0,1)``,
  ``m_min > m_max``) raise :class:`~repro.errors.ConfigError`
  immediately, not steps later inside an engine;
* **canonical JSON round-trip** — :meth:`RunConfig.to_dict` /
  :meth:`RunConfig.from_dict` (and the ``to_json``/``from_json``
  wrappers) are exact inverses, so the content-addressed result cache
  serialises the *whole* config instead of a hand-picked field subset.

A :class:`RunConfig` describes one engine run assembled from registry
names (``workload=``, ``controller=``, ``order=`` — resolved against
:mod:`repro.registry` by :func:`repro.api.run`).  Experiments are not
configs: :func:`repro.experiments.runner.run_experiment` runs one by
name, seed and size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.errors import ConfigError

__all__ = ["RunConfig"]

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _opt_int(value: "Any", name: str, minimum: "int | None" = None) -> "int | None":
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int or None, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """One engine run, assembled by name through :func:`repro.api.run`.

    Every field is JSON-representable and the dataclass is frozen, so a
    config can serve as a cache key and a cross-process message without
    translation.

    Attributes
    ----------
    seed:
        Explicit RNG seed; ``None`` seeds the engine from fresh entropy.
    workload:
        Registered workload factory name: a synthetic graph workload
        (``"replay"``, ``"consuming"``, ``"regenerating"`` — these need
        ``graph=``), an application (``"boruvka"``, ``"delaunay"``,
        ``"coloring"``, ``"des"``, ``"maxflow"``, ``"sp"``,
        ``"clustering"``, ``"components"``, optionally with a
        ``":<scale>"`` suffix — these synthesise a seeded input when no
        ``graph=`` is passed), or a recorded workload trace to replay
        (``"trace:<path>"``).  Ordered-only apps (``"des"``) reject
        unordered ``order=`` specs at construction time.
    controller:
        Registered controller factory name (default ``"hybrid"``,
        the paper's Algorithm 1).
    rho:
        Target conflict ratio in ``(0, 1)``.
    m:
        Fixed allocation (``controller="fixed"`` only).
    m_min, m_max:
        Allocation clamp range; ``m_min=None`` keeps each controller's
        own default.
    order:
        Commit-order policy spec: ``"unordered"`` (the §2 uniform-draw
        model), ``"ordered"`` (strict priority order with
        barrier/horizon rules), ``"relaxed:k"`` (k-of-top priority
        relaxation, ``k >= 1``), ``"async"`` / ``"async:w"``
        (arrival order with staleness window ``w``),
        ``"sharded"`` / ``"sharded:s"`` (partitioned two-phase
        resolution with halo exchange over ``s`` shards, default 1;
        ``s > 1`` needs an explicit-graph workload), or ``None``
        to infer the policy from the run inputs (the historical
        behaviour).  The base name is validated **eagerly** against the
        ``"order-policy"`` registry — an unknown name raises
        :class:`~repro.errors.RegistryError` listing every available
        policy at construction time, not steps later inside an engine.
    max_steps:
        Step cap for engine runs (required by replay workloads, which
        never drain).
    """

    seed: "int | None" = None
    workload: str = "replay"
    controller: str = "hybrid"
    rho: float = 0.25
    m: "int | None" = None
    m_min: "int | None" = None
    m_max: int = 1024
    order: "str | None" = None
    max_steps: "int | None" = None

    def __post_init__(self) -> None:
        _opt_int(self.seed, "seed")
        for name in ("workload", "controller"):
            value = getattr(self, name)
            _require(
                isinstance(value, str) and bool(value),
                f"{name} must be a non-empty registry name, got {value!r}",
            )
        _require(
            isinstance(self.rho, (int, float)) and 0.0 < float(self.rho) < 1.0,
            f"target conflict ratio rho must be in (0,1), got {self.rho!r}",
        )
        object.__setattr__(self, "rho", float(self.rho))
        _opt_int(self.m, "m", minimum=1)
        # missing, m would only fail inside run(); elsewhere it is ignored
        _require(
            (self.controller == "fixed") == (self.m is not None),
            f'controller="fixed" needs an explicit m and no other controller '
            f"reads one (m_min/m_max clamp those); got "
            f"controller={self.controller!r}, m={self.m!r}",
        )
        _opt_int(self.m_min, "m_min", minimum=1)
        _require(
            isinstance(self.m_max, int) and not isinstance(self.m_max, bool)
            and self.m_max >= 1,
            f"m_max must be an int >= 1, got {self.m_max!r}",
        )
        if self.m_min is not None:
            _require(
                self.m_min <= self.m_max,
                f"empty allocation range [{self.m_min}, {self.m_max}]",
            )
        if self.order is not None:
            _require(
                isinstance(self.order, str) and bool(self.order),
                f"order must be a non-empty policy spec or None, got {self.order!r}",
            )
            # eager registry validation: an unknown order-policy name
            # raises RegistryError (listing every registered policy) at
            # construction time, not steps later inside an engine.  The
            # import is function-level — config sits below the registry
            # layer, and that is the sanctioned way to reach up at call
            # time (tools/check_layers.py exempts it).
            from repro.registry import ORDER_POLICIES, parse_order_spec

            name, _ = parse_order_spec(self.order)
            ORDER_POLICIES.get(name)
        # eager workload-spec validation, mirroring the order check
        # above: malformed specs ("trace:" without a path, "boruvka:x"
        # without an integer scale) and ordered-only apps combined with
        # an unordered commit order fail at construction time
        from repro.registry import parse_workload_spec

        workload_name, _ = parse_workload_spec(self.workload)
        if self.order is not None:
            from repro.apps.catalog import check_order_combination

            check_order_combination(workload_name, self.order)
        _opt_int(self.max_steps, "max_steps", minimum=0)

    # -- seeds ----------------------------------------------------------
    def with_seed(self, seed: int) -> "RunConfig":
        """A copy of this config pinned to an explicit *seed*."""
        return replace(self, seed=int(seed))

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-able mapping of every field (exact inverse of
        :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output; rejects unknown keys."""
        if not isinstance(payload, dict):
            raise ConfigError(f"RunConfig payload must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown RunConfig field(s): {', '.join(unknown)}")
        return cls(**payload)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace variance)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"RunConfig JSON does not parse: {exc}") from exc
        return cls.from_dict(payload)
