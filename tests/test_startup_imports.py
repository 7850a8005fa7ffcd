"""A fresh process starts, and runs its sparse work, without scipy.

``scipy.stats`` and ``scipy.linalg`` together take 0.6-1.0 s to import
(2-vCPU x86-64 VM), and ``scipy.sparse`` another 0.16-0.28 s, which every
``repro`` command, batch child and serve worker would pay. Figure 1
computes its KDE in NumPy, ``repro.sparse`` assembles its matrices in
NumPy, and scipy is imported only by ``to_scipy()``, the kernels'
``validate()`` oracles and the Cholesky TRSM, when they run. The child
reports the scipy modules in ``sys.modules`` at the points a process
reaches: the registry loaded (as perfbench's batch child loads it before
it reports ready), the serve application imported, Figure 1, ext4 and
ext5 run (they build ``random_uniform``, ``banded`` and all eight
families with their lower triangles), and a sparse ``advise`` answered.
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

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
from repro import runtime
from repro.experiments import registry
registry.all_experiments()
seen["registry"] = loaded()
import repro.serve.app
seen["serve"] = loaded()
for experiment_id in ("fig1", "ext4", "ext5"):
    registry.run(experiment_id, quick=True)
    seen[experiment_id] = loaded()
from repro.serve import advisor
for kernel in ("spmv", "sptrans", "sptrsv"):
    advisor.advise({"kernel": kernel, "params": {"n_rows": 4096, "family": "banded"}})
seen["advise"] = loaded()
print(json.dumps(seen))
"""

POINTS = ["registry", "serve", "fig1", "ext4", "ext5", "advise"]


@pytest.fixture(scope="module")
def seen():
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


def test_registry_serve_and_fig1_import_neither_stats_nor_linalg(seen):
    for point in ("registry", "serve", "fig1"):
        assert [m for m in HEAVY if m in seen[point]] == [], point


def test_no_scipy_module_at_start_up_or_after_sparse_work(seen):
    assert seen == {point: [] for point in POINTS}
