"""A fresh process starts, and runs its sparse work, without scipy.

``scipy.stats`` and ``scipy.linalg`` together take 0.6-1.0 s to import
(2-vCPU x86-64 VM), and ``scipy.sparse`` another 0.16-0.28 s, which every
``repro`` command, batch child and serve worker would pay. Figure 1
computes its KDE in NumPy, ``repro.sparse`` assembles its matrices in
NumPy, and scipy is imported only by ``to_scipy()``, the kernels'
``validate()`` oracles and the Cholesky TRSM, when they run. The child
reports the scipy modules in ``sys.modules`` at the points a process
reaches: the registry loaded (as perfbench's batch child loads it before
it reports ready), the serve application imported, three sparse
``advise`` queries answered (as a serve shard answers them, before any
experiment runs), and Figure 1, ext4 and ext5 run (they build
``random_uniform``, ``banded`` and all eight families with their lower
triangles).

It also reports whether ``numpy.random`` (15 modules, ~10 ms) is loaded.
The advisor's sparse descriptors use no jitter, so serving them draws no
random numbers and must not import it; the experiments do draw some.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.stats", "scipy.linalg")

CHILD = """
import json, sys

seen, rng = {}, {}

def note(point):
    seen[point] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    rng[point] = "numpy.random" in sys.modules

from repro import runtime
from repro.experiments import registry
registry.all_experiments()
note("registry")
import repro.serve.app
note("serve")
from repro.serve import advisor
for kernel in ("spmv", "sptrans", "sptrsv"):
    advisor.advise({"kernel": kernel, "params": {"n_rows": 4096, "family": "banded"}})
note("advise")
for experiment_id in ("fig1", "ext4", "ext5"):
    registry.run(experiment_id, quick=True)
    note(experiment_id)
print(json.dumps({"scipy": seen, "numpy.random": rng}))
"""

POINTS = ["registry", "serve", "advise", "fig1", "ext4", "ext5"]


@pytest.fixture(scope="module")
def child():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def seen(child):
    return child["scipy"]


def test_registry_serve_and_fig1_import_neither_stats_nor_linalg(seen):
    for point in ("registry", "serve", "fig1"):
        assert [m for m in HEAVY if m in seen[point]] == [], point


def test_no_scipy_module_at_start_up_or_after_sparse_work(seen):
    assert seen == {point: [] for point in POINTS}


def test_serving_sparse_advice_imports_no_numpy_random(child):
    loaded = child["numpy.random"]
    assert {p: loaded[p] for p in ("registry", "serve", "advise")} == {
        "registry": False,
        "serve": False,
        "advise": False,
    }
