"""``reference_paths()`` must really pin the oracles — and let go of them.

Every differential test that compares the default path against
``reference_paths()`` proves nothing if the block still runs the array
kernels, so this counts kernel calls on a run built to use them.
"""

from __future__ import annotations

import pytest

from repro import RunConfig, run
from repro.control import FixedController
from repro.graph.generators import gnm_random
from repro.runtime import conflict, kernels, policies
from repro.runtime.engine import make_engine
from repro.runtime.workloads import ReplayGraphWorkload
from repro.testing.oracles import reference_paths


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _replay_steps():
    """A static graph at batches past the gather cut-over."""
    workload = ReplayGraphWorkload(gnm_random(400, 6, seed=1))
    engine = make_engine(workload, FixedController(200), seed=3)
    engine.run(max_steps=6)
    return [s.as_dict() for s in engine.result.steps]


def _sharded_steps():
    """The same, sharded: every batch but the first is gathered."""
    config = RunConfig(
        workload="replay",
        order="sharded:3",
        controller="fixed",
        m=200,
        max_steps=6,
        seed=2,
    )
    result = run(config, graph=gnm_random(400, 6, seed=4))
    assert all(s.launched >= kernels.GATHER_MIN_BATCH for s in result.steps)
    return [s.as_dict() for s in result.steps]


def test_gather_kernel_runs_outside_the_block_and_never_inside(monkeypatch):
    calls = _count_calls(monkeypatch, conflict, "csr_greedy_commit_mask")
    default = _replay_steps()
    assert len(calls) > 0  # the default run is on the array path
    del calls[:]
    with reference_paths():
        pinned = _replay_steps()
    assert calls == []
    assert pinned == default and sum(s["aborted"] for s in pinned) > 0


def test_two_phase_mask_kernel_declines_inside_the_block(monkeypatch):
    fast = _count_calls(monkeypatch, policies, "csr_two_phase_commit_mask")
    walk = _count_calls(monkeypatch, policies, "two_phase_commit_mask")
    default = _sharded_steps()
    # the first gather-sized batch over a graph walks, the rest gather
    assert len(fast) == len(default) - 1 and len(walk) == 1
    del fast[:], walk[:]
    with reference_paths():
        pinned = _sharded_steps()
    assert fast == [] and len(walk) == len(pinned)
    assert pinned == default and sum(s["aborted"] for s in pinned) > 0


def test_patches_are_restored_also_after_an_exception():
    # the cut-over is the only attribute the block touches
    before = conflict.GATHER_MIN_BATCH
    with pytest.raises(ZeroDivisionError):
        with reference_paths():
            assert conflict.GATHER_MIN_BATCH > 10**9
            1 / 0
    assert conflict.GATHER_MIN_BATCH == before
