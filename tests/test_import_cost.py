"""Start-up cost guard: a run imports only what its config uses.

``import scipy.stats`` is ~0.75 s of what used to be a 1 s ``import
repro`` (and ~130 MiB of RSS); the one call site that needs scipy (the
max-flow oracle) imports it where it uses it.  ``multiprocessing``
belongs to the sweep harness (``repro.experiments.parallel``) alone: no
engine run, sharded or not, starts a process.  Within ``repro`` itself, a
bare graph run loads no application module and none of the model,
trace-replay, export or report modules it never calls (the package
``__init__`` files re-export lazily), an app run loads that app alone,
and a ``recurrence-a`` run (an Algorithm 1 preset) loads the controller
and model modules of a ``hybrid`` run.  Each case runs in a fresh
interpreter, because this test process has long since imported all of
them through other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
from repro import RunConfig
from repro.api import run
from repro.graph.generators import gnm_random
result = run(RunConfig(workload={workload!r}, controller="hybrid", m_max=32,
                       max_steps=20, seed=1, order={order!r}), graph={graph})
assert result.total_committed > 0
"""

GNM = "gnm_random(200, 4, seed=1)"
CASES = {
    "import": "",
    "replay": RUN.format(workload="replay", order=None, graph=GNM),
    "sharded": RUN.format(workload="replay", order="sharded:2", graph=GNM),
    "regenerating": RUN.format(workload="regenerating", order=None, graph=GNM),
    "maxflow": RUN.format(workload="maxflow:40", order=None, graph="None"),
    "recurrence-a": RUN.replace('"hybrid"', '"recurrence-a"').format(
        workload="replay", order=None, graph=GNM
    ),
}


def _run_case(case, tail):
    code = "import sys, repro\n" + CASES[case] + tail
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def _assert_not_imported(module, case):
    done = _run_case(case, f"sys.exit({module!r} in sys.modules)\n")
    assert done.returncode == 0, (
        f"{module} was imported (or the run failed) in case {case!r}:\n{done.stderr}"
    )


def _repro_modules(case):
    done = _run_case(case, "print(*(m for m in sys.modules if m.startswith('repro.')))\n")
    assert done.returncode == 0, f"case {case!r} failed:\n{done.stderr}"
    return set(done.stdout.split())


@pytest.mark.parametrize("case", CASES)
def test_scipy_is_not_imported(case):
    _assert_not_imported("scipy", case)


@pytest.mark.parametrize("case", ["import", "replay", "sharded"])
def test_multiprocessing_is_not_imported(case):
    _assert_not_imported("multiprocessing", case)


#: modules no bare graph run calls into
UNUSED_BY_GRAPH_RUNS = {
    "repro.model.permutation",
    "repro.model.conflict_ratio",
    "repro.obs.export",
    "repro.obs.replay",
    "repro.obs.report",
}


@pytest.mark.parametrize("case", ["import", "replay", "sharded", "regenerating"])
def test_bare_graph_run_loads_no_app_and_no_unused_layer(case):
    loaded = _repro_modules(case)
    # the catalog answers name checks; it imports no app module
    assert {m for m in loaded if m.startswith("repro.apps.")} <= {"repro.apps.catalog"}
    assert not loaded & UNUSED_BY_GRAPH_RUNS


def test_app_run_loads_that_app_alone():
    apps = {m for m in _repro_modules("maxflow") if m.startswith("repro.apps.")}
    assert apps == {"repro.apps.base", "repro.apps.catalog", "repro.apps.maxflow"}


def test_recurrence_preset_loads_what_hybrid_loads():
    def layers(case):
        return {m for m in _repro_modules(case) if m.startswith(("repro.control", "repro.model"))}

    assert layers("recurrence-a") == layers("replay")
