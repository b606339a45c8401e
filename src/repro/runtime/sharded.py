"""``run_sharded`` is ``repro.api.run`` under ``order="sharded[:k]"``.

Kept only because the frozen ``benchmarks/e2e/workloads.py`` imports it
by this path; new code calls ``run(RunConfig(order="sharded:k"), graph=...)``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError

__all__ = ["run_sharded"]


def run_sharded(config, graph, *, seed=None, controller=None, recorder=None,
                metrics=None):
    """Run *config* over *graph* under the sharded commit order (its default)."""
    # call-time up-reach into api/registry (sanctioned; see config.py)
    from repro.api import run
    from repro.registry import parse_order_spec

    order = config.order or "sharded"
    if parse_order_spec(order)[0] != "sharded":
        raise ConfigError(
            f'run_sharded needs order="sharded[:k]", got {config.order!r}'
        )
    config = replace(config, order=order)
    return run(config, graph=graph, seed=seed, controller=controller,
               recorder=recorder, metrics=metrics)
