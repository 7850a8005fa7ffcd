"""The NumPy sparse assembly returns SciPy's arrays byte for byte.

``repro.sparse`` assembles every matrix through ``CSRMatrix.from_coo``;
``tests/sparse_oracle.py`` keeps the SciPy construction it replaced. The
experiment digests alone cannot catch a wrong summation order: the order
in which duplicates are added matters only where three or more entries
share a coordinate, so the seeded coordinate sets below pile many entries
onto few positions, with magnitudes from 1e-8 to 1e8.
"""

import io
import tracemalloc

import numpy as np
import pytest
import scipy.io

from repro.kernels.sptrans import scan_trans
from repro.sparse import (
    FAMILIES,
    CSCMatrix,
    CSRMatrix,
    generate,
    generators,
    order_rows_by_length,
    read_mm,
    write_mm,
)
from tests import sparse_oracle

#: (n, nnz, seed): ext4 quick and full, ext5 quick and full, the energy
#: ledger's SpMV matrix and two other points.
POINTS = [
    (600, 9000, 1),
    (1200, 18000, 1),
    (800, 8000, 7),
    (4000, 60000, 7),
    (150, 900, 1),
    (300, 4000, 11),
    (97, 1500, 3),
]


def assert_same(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def coo_set(seed: int):
    """Up to 400 entries on a shape up to 30x30; small shapes put long runs
    of duplicates on each coordinate."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 31)), int(rng.integers(1, 31)))
    n = int(rng.integers(0, 401))
    rows = rng.integers(0, shape[0], size=n)
    cols = rng.integers(0, shape[1], size=n)
    vals = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    return rows, cols, vals, shape


def patchwork(diagonal_zero: bool) -> CSRMatrix:
    """4x4 with a stored zero off the diagonal at (2, 0), no entry at
    (3, 3), and at (1, 1) a stored zero or 5.0."""
    return CSRMatrix(
        n_rows=4,
        n_cols=4,
        indptr=np.array([0, 2, 4, 6, 7]),
        indices=np.array([0, 3, 0, 1, 0, 2, 1]),
        data=np.array([2.0, 1.5, -1.0, 0.0 if diagonal_zero else 5.0, 0.0, 3.0, 4.0]),
    )


class TestGenerators:
    @pytest.mark.parametrize("n, nnz, seed", POINTS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_and_lower_triangle_equal_scipy(self, family, n, nnz, seed):
        want = sparse_oracle.generate(family, n, nnz, seed=seed)
        got = generate(family, n, nnz, seed=seed)
        assert_same(got, want)
        assert_same(got.lower_triangle(), sparse_oracle.lower_triangle(want))

    def test_rectangular_grids_put_the_first_axis_fastest(self):
        assert_same(generators.grid2d(5, 3), sparse_oracle.grid2d(5, 3))
        assert_same(generators.grid3d(2, 3, 4), sparse_oracle.grid3d(2, 3, 4))


class TestFromCoo:
    def test_sums_duplicates_as_scipy_does(self):
        mismatched = []
        for seed in range(500):
            rows, cols, vals, shape = coo_set(seed)
            got = CSRMatrix.from_coo(rows, cols, vals, shape)
            want = sparse_oracle.from_coo(rows, cols, vals, shape)
            try:
                assert_same(got, want)
            except AssertionError:
                mismatched.append(seed)
        assert mismatched == []

    @pytest.mark.parametrize("shape", [(3, 4), (0, 0), (0, 5)])
    def test_empty(self, shape):
        none = np.array([], dtype=np.int64)
        got = CSRMatrix.from_coo(none, none, np.array([]), shape)
        assert_same(got, sparse_oracle.from_coo(none, none, np.array([]), shape))

    def test_keeps_a_sum_that_cancels(self):
        got = CSRMatrix.from_coo([1, 1, 0], [2, 2, 0], [3.0, -3.0, 1.0], (2, 3))
        assert got.indices.tolist() == [0, 2]
        assert got.data.tolist() == [1.0, 0.0]

    def test_rejects_a_shape_whose_key_overflows_before_allocating(self):
        rows = np.zeros(1 << 20, dtype=np.int32)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(4294967296, 4294967296\)"):
                CSRMatrix.from_coo(rows, rows, rows, (2**32, 2**32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Converting the coordinates to int64 would take 8 MiB.
        assert peak < 1 << 20

    @pytest.mark.parametrize("rows, cols", [([2], [0]), ([0], [3]), ([-1], [0]), ([0], [-1])])
    def test_rejects_coordinates_outside_the_shape(self, rows, cols):
        with pytest.raises(ValueError, match=r"out of range for shape \(2, 3\)"):
            CSRMatrix.from_coo(rows, cols, [1.0], (2, 3))


class TestDiagonal:
    @pytest.mark.parametrize("diagonal_zero", [True, False])
    def test_fill_zero_diagonal_equals_scipy_sum(self, diagonal_zero):
        m = patchwork(diagonal_zero)
        got = m.fill_zero_diagonal(7.0)
        assert_same(got, sparse_oracle.fill_zero_diagonal(m, 7.0))
        stored = dict(zip(zip(*got.to_coo()[:2]), got.data))
        assert stored[(3, 3)] == 7.0
        assert ((1, 1) in stored) and stored[(1, 1)] == (7.0 if diagonal_zero else 5.0)
        assert (2, 0) not in stored  # the stored zero goes with the sum

    def test_fill_zero_diagonal_leaves_a_full_diagonal_alone(self):
        m = CSRMatrix.from_coo([0, 0, 1], [0, 1, 1], [1.0, 0.0, 2.0], (2, 2))
        assert m.fill_zero_diagonal(7.0) is m
        assert_same(m, sparse_oracle.fill_zero_diagonal(m, 7.0))

    @pytest.mark.parametrize("diagonal_zero", [True, False])
    def test_lower_triangle_equals_scipy(self, diagonal_zero):
        m = patchwork(diagonal_zero)
        for fill in (1.0, 0.5):
            assert_same(
                m.lower_triangle(unit_diagonal_fill=fill),
                sparse_oracle.lower_triangle(m, unit_diagonal_fill=fill),
            )

    def test_diagonal_reads_stored_values_and_zero_where_absent(self):
        assert patchwork(False).diagonal().tolist() == [2.0, 5.0, 3.0, 0.0]
        wide = CSRMatrix.from_coo([0, 1, 1], [0, 1, 4], [1.0, 2.0, 3.0], (2, 5))
        assert wide.diagonal().tolist() == [1.0, 2.0]


class TestConversions:
    def test_from_dense_equals_scipy(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
        dense[0, 0], dense[1, 2], dense[3, 3], dense[6, 4] = -0.0, np.nan, np.inf, 0.0
        assert_same(CSRMatrix.from_dense(dense), sparse_oracle.from_dense(dense))

    def test_to_dense_equals_scipy(self):
        # Rows hold no repeated column (construction rejects one), so only
        # the stored -0.0 tells accumulation from assignment.
        signed = CSRMatrix(
            n_rows=2,
            n_cols=3,
            indptr=np.array([0, 3, 5]),
            indices=np.array([0, 1, 2, 0, 1]),
            data=np.array([1e16, -0.0, -1e16, 1.0, 2.5]),
        )
        for m in (signed, generate("random", 97, 1500, seed=3)):
            assert m.to_dense().tobytes() == sparse_oracle.to_dense(m).tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_csc_to_csr_equals_scipy(self, family):
        csc = scan_trans(generate(family, 300, 4000, seed=11))
        assert_same(csc.to_csr(), sparse_oracle.to_csr(csc))

    def test_csc_to_csr_keeps_stored_zeros(self):
        csc = CSCMatrix(
            n_rows=3,
            n_cols=2,
            indptr=np.array([0, 2, 3]),
            indices=np.array([0, 2, 1]),
            data=np.array([0.0, 1.0, -0.0]),
        )
        assert_same(csc.to_csr(), sparse_oracle.to_csr(csc))

    @pytest.mark.parametrize("descending", [True, False])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_order_rows_by_length_equals_scipy(self, family, descending):
        m = generate(family, 300, 4000, seed=11)
        got, order = order_rows_by_length(m, descending=descending)
        want, want_order = sparse_oracle.order_rows_by_length(m, descending=descending)
        assert order.tobytes() == want_order.tobytes()
        assert_same(got, want)


def mm_text(rows, cols, vals, shape) -> str:
    lines = [f"{r + 1} {c + 1} {v!r}" for r, c, v in zip(rows, cols, vals)]
    head = f"%%MatrixMarket matrix coordinate real general\n{shape[0]} {shape[1]} {len(lines)}\n"
    return head + "".join(line + "\n" for line in lines)


class TestMatrixMarket:
    def test_duplicates_cancel_to_a_stored_zero(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1e16\n"
            "1 1 1.0\n"
            "1 1 -1e16\n"
        )
        m = read_mm(io.StringIO(text))
        assert m.indptr.tolist() == [0, 1, 1]
        assert m.indices.tolist() == [0]
        assert m.data.tolist() == [0.0]

    def test_duplicates_are_summed_in_file_order_by_from_coos_rule(self):
        for seed in range(100):
            rows, cols, vals, shape = coo_set(seed)
            m = read_mm(io.StringIO(mm_text(rows, cols, vals.tolist(), shape)))
            assert_same(m, sparse_oracle.from_coo(rows, cols, vals, shape))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_canonical_files_read_back_as_scipy_reads_them(self, family):
        m = generate(family, 300, 4000, seed=11)
        buf = io.StringIO()
        write_mm(m, buf)
        buf.seek(0)
        got = read_mm(buf)
        buf.seek(0)
        assert_same(got, CSRMatrix.from_scipy(scipy.io.mmread(buf).tocsr()))
        assert_same(got, m)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_write_mm_text_equals_scipy_coo_for_ext5(self, family):
        lower = generate(family, 800, 8000, seed=7).lower_triangle()
        buf = io.StringIO()
        write_mm(lower, buf)
        assert buf.getvalue() == sparse_oracle.write_mm_text(lower)

    @pytest.mark.parametrize("entry", ["3 1 1.0", "1 0 1.0"])
    def test_rejects_an_entry_outside_the_declared_shape(self, entry):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n"
        with pytest.raises(ValueError, match="out of range"):
            read_mm(io.StringIO(text))
