"""List-based level scheduling and schedule simulation equal the oracle.

``tests/schedule_oracle.py`` keeps the per-row NumPy implementations;
the library's rewrites must return exactly the same results: floats
compared with ``==``, arrays by value and dtype.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import FAMILIES, CSRMatrix, build_levels, generators, simulate_schedule
from tests import schedule_oracle

DISCIPLINES = ("level", "sync-free")


def _assert_same_levels(got, want):
    for field in ("level_of", "level_offsets", "order"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def _assert_same_schedules(lower, cores_list=(4, 64), **kwargs):
    _assert_same_levels(build_levels(lower), schedule_oracle.build_levels(lower))
    for cores in cores_list:
        for discipline in DISCIPLINES:
            got = simulate_schedule(lower, cores=cores, discipline=discipline, **kwargs)
            want = schedule_oracle.simulate_schedule(
                lower, cores=cores, discipline=discipline, **kwargs
            )
            assert got == want, (cores, discipline)


@pytest.mark.parametrize("size", [(800, 8000), (4000, 60_000)], ids=["quick", "full"])
@pytest.mark.parametrize("family", FAMILIES)
def test_ext5_families(family, size):
    """ext5's matrices at both sizes, both core counts, both disciplines."""
    lower = generators.generate(family, *size, seed=7).lower_triangle()
    _assert_same_schedules(lower)


@st.composite
def lower_triangular(draw):
    """Lower-triangular matrices: empty, single rows, chains, dense rows
    and random sparsity, with or without diagonals."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["random", "chain", "dense"]))
    rows, cols = [], []
    for i in range(n):
        if shape == "chain":
            deps = [i - 1] if i else []
        elif shape == "dense":
            deps = list(range(i))
        else:
            deps = sorted(draw(st.sets(st.integers(0, i - 1), max_size=i)) if i else [])
        if shape != "random" or draw(st.booleans()):
            deps.append(i)
        rows += [i] * len(deps)
        cols += deps
    data = np.ones(len(rows))
    return CSRMatrix.from_scipy(sp.csr_matrix((data, (rows, cols)), shape=(n, n)))


@settings(max_examples=60, deadline=None)
@given(
    lower=lower_triangular(),
    cores=st.integers(1, 9),
    per_nnz_cost=st.sampled_from([1.0, 0.0, 0.3, 2.5]),
    base_cost=st.sampled_from([2.0, 0.0, 0.7, 11.0]),
    barrier_cost=st.sampled_from([20.0, 0.0, 0.1, 3.0]),
)
def test_property_matches_oracle(lower, cores, per_nnz_cost, base_cost, barrier_cost):
    _assert_same_schedules(
        lower,
        cores_list=(cores,),
        per_nnz_cost=per_nnz_cost,
        base_cost=base_cost,
        barrier_cost=barrier_cost,
    )


def test_empty_and_single_row():
    for n in (0, 1):
        lower = CSRMatrix.from_scipy(sp.csr_matrix(np.eye(n)))
        _assert_same_schedules(lower)
        assert simulate_schedule(lower, cores=4).makespan == 3.0 * n  # base 2 + 1 nnz


def test_rejections_match_oracle():
    square = generators.tridiagonal(10).lower_triangle()
    wide = CSRMatrix.from_scipy(sp.csr_matrix(np.ones((2, 3))))
    for fn in (simulate_schedule, schedule_oracle.simulate_schedule):
        with pytest.raises(ValueError, match="cores"):
            fn(square, cores=0)
        with pytest.raises(ValueError, match="discipline"):
            fn(square, cores=4, discipline="magic")
        with pytest.raises(ValueError, match="square"):
            fn(wide, cores=4)
