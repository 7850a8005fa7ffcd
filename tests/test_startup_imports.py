"""A fresh process starts without scipy's stats and linalg packages.

Together they take 0.6-1.0 s to import (2-vCPU x86-64 VM), which every
``repro`` command, batch child and serve worker would pay. Figure 1
computes its KDE in NumPy, and only the Cholesky TRSM imports
``scipy.linalg``, when it runs. The child reports ``sys.modules`` at the
points a process reaches: the registry loaded (as perfbench's batch child
loads it before it reports ready), the serve application imported, and
Figure 1 run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.stats", "scipy.linalg")

CHILD = f"""
import json, sys

def loaded():
    return [m for m in {HEAVY!r} if m in sys.modules]

seen = {{}}
from repro import runtime
from repro.experiments import registry
registry.all_experiments()
seen["registry"] = loaded()
import repro.serve.app
seen["serve"] = loaded()
registry.run("fig1", quick=True)
seen["fig1"] = loaded()
print(json.dumps(seen))
"""


def test_registry_serve_and_fig1_import_neither_stats_nor_linalg():
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
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"registry": [], "serve": [], "fig1": []}
