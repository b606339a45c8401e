"""Start-up cost guard: scipy and multiprocessing stay off import and run() paths.

``import scipy.stats`` is ~0.75 s of what used to be a 1 s ``import
repro`` (and ~130 MiB of RSS); the two call sites that need scipy
(``model.noise``'s normal quantiles, the max-flow oracle) import it where
they use it.  ``multiprocessing`` belongs to the sweep harness
(``repro.experiments.parallel``) alone: no engine run, sharded or not,
starts a process.  Each case runs in a fresh interpreter, because this
test process has long since imported both through other tests.
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
}


def _assert_not_imported(module, case):
    check = f"sys.exit({module!r} in sys.modules)\n"
    code = "import sys, repro\n" + CASES[case] + check
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, (
        f"{module} was imported (or the run failed) in case {case!r}:\n{done.stderr}"
    )


@pytest.mark.parametrize("case", CASES)
def test_scipy_is_not_imported(case):
    _assert_not_imported("scipy", case)


@pytest.mark.parametrize("case", ["import", "replay", "sharded"])
def test_multiprocessing_is_not_imported(case):
    _assert_not_imported("multiprocessing", case)
