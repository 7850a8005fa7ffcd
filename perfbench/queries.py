"""Seeded advise traffic for the ``serve`` workload.

Every query is drawn over all eight kernels with wide parameter ranges,
so the population of distinct queries is effectively unbounded (the
``serve-bench`` population repeats after about 30 queries). A request is
a never-seen query with probability ``P_NEW``; otherwise it repeats an
earlier query, picked by a Zipf-like law over how recently each query
first appeared. Recent queries are hot, old ones fall out of the
server's in-memory tier and are read back from disk, and which query is
hottest keeps changing, so no single query's cost dominates a run.

Only the standard library is used: the inputs depend on the seed alone.
"""

from __future__ import annotations

import json
import math
import random

#: Probability that a request carries a query never sent before.
P_NEW = 0.3
#: Pareto shape of the repeat law: the r-th most recent distinct query is
#: repeated with P(R >= r) = r**-a.
ZIPF_A = 0.45

KERNELS = ("stream", "gemm", "cholesky", "fft", "stencil", "spmv", "sptrans", "sptrsv")
FAMILIES = ("banded", "random", "powerlaw", "block", "grid2d", "grid3d", "tridiag", "rmat")
CANDIDATES = (
    "broadwell/off", "broadwell/on", "skylake/off", "skylake/on",
    "knl/off", "knl/cache", "knl/flat", "knl/hybrid", "knl/hybrid25",
)


def _log_int(rng: random.Random, lo: int, hi: int) -> int:
    """An integer log-uniform in ``[lo, hi]``."""
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def _params(rng: random.Random, kernel: str) -> dict:
    if kernel == "stream":
        return {"n": _log_int(rng, 1 << 10, 1 << 30)}
    if kernel in ("gemm", "cholesky"):
        order = _log_int(rng, 16, 16384)
        if rng.random() < 0.5:
            return {"order": order}
        return {"order": order, "tile": _log_int(rng, 8, min(order, 1024))}
    if kernel == "fft":
        return {"size": _log_int(rng, 2, 8192)}
    if kernel == "stencil":
        nx, ny, nz = (_log_int(rng, 17, 1024) for _ in range(3))
        return {"nx": nx, "ny": ny, "nz": nz, "steps": rng.randint(1, 16)}
    n_rows = _log_int(rng, 64, 1 << 24)
    return {
        "n_rows": n_rows,
        "nnz": n_rows * _log_int(rng, 1, 128),
        "family": rng.choice(FAMILIES),
    }


def new_query(rng: random.Random) -> dict:
    """One random advise request body."""
    kernel = rng.choice(KERNELS)
    query: dict = {"kernel": kernel, "params": _params(rng, kernel)}
    if rng.random() < 0.5:
        query["candidates"] = rng.sample(CANDIDATES, rng.randint(1, len(CANDIDATES)))
    if rng.random() < 0.5:
        query["objective"] = "energy"
    return query


def traffic(seed: int, n: int) -> tuple[list[bytes], list[int]]:
    """``n`` requests: the distinct request bodies, and the body index of
    each request in send order."""
    rng = random.Random(seed)
    bodies: list[bytes] = []
    seen: set[bytes] = set()
    order: list[int] = []
    while len(order) < n:
        if not bodies or rng.random() < P_NEW:
            body = json.dumps(new_query(rng), sort_keys=True).encode("utf-8")
            if body in seen:
                continue
            seen.add(body)
            bodies.append(body)
            order.append(len(bodies) - 1)
        else:
            rank = min(int(rng.paretovariate(ZIPF_A)), len(bodies))
            order.append(len(bodies) - rank)
    return bodies, order
