"""Differential suite: hand-wired apps on the oracles vs the registry path.

Every application can be driven by hand — build the input, build the
workload, call ``make_engine`` with an explicitly constructed
controller — or by name through ``run(RunConfig(workload=...))``.  The
hand-wired leg here injects the reference ``RandomWorkset`` and runs
under ``reference_paths()``, so for each app the two legs differ in
sampler, commit branch and resolution path, and must still produce
**byte-identical** observability traces, not merely equal summary
statistics.
"""

import pytest

from repro import RunConfig
from repro.api import run
from repro.apps import build_app_input, workload_from_input
from repro.obs import TraceRecorder
from repro.registry import CONTROLLERS
from repro.runtime.engine import make_engine
from repro.runtime.workset import RandomWorkset
from repro.testing.oracles import reference_paths
from repro.utils.rng import derive_seed

SEED = 23

#: small-but-nontrivial problem sizes so the full matrix stays fast
SCALES = {
    "boruvka": 60,
    "clustering": 50,
    "coloring": 60,
    "components": 60,
    "delaunay": 16,
    "des": 6,
    "maxflow": 30,
    "sp": 12,
}


def _legacy_trace(name, cfg):
    """Direct construction, on the oracle work-set and resolution walks."""
    seed_in = derive_seed(SEED, "workload", name)
    source = build_app_input(name, SCALES[name], seed_in)
    # ordered-only apps bring their own priority work-set: nothing to inject
    workset = None if name == "des" else RandomWorkset()
    app = workload_from_input(name, source, seed=seed_in, workset=workset)
    controller = CONTROLLERS.create(cfg.controller, cfg)
    rec = TraceRecorder()
    engine = make_engine(app, controller, seed=SEED, recorder=rec)
    with reference_paths():
        engine.run()
    return rec.to_jsonl()


def _registry_trace(name, cfg):
    rec = TraceRecorder()
    run(cfg, recorder=rec)
    return rec.to_jsonl()


@pytest.mark.parametrize("name", sorted(SCALES))
def test_legacy_and_registry_paths_are_byte_identical(name):
    cfg = RunConfig(workload=f"{name}:{SCALES[name]}", seed=SEED)
    assert _legacy_trace(name, cfg) == _registry_trace(name, cfg)
