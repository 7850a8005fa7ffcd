"""CSR/CSC/CSR5 containers and conversions."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.sptrans import merge_trans, scan_trans
from repro.sparse import (
    FAMILIES,
    CSCMatrix,
    CSRMatrix,
    decode,
    encode,
    generate,
    order_rows_by_length,
    read_mm,
    spmv_csr5,
    write_mm,
)
from repro.sparse.csr5 import _transpose_order


def random_csr(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    return CSRMatrix.from_dense(dense)


class TestCSR:
    def test_from_dense_roundtrip(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        m = CSRMatrix.from_dense(dense)
        assert m.nnz == 2
        np.testing.assert_allclose(m.to_dense(), dense)

    def test_row_view(self):
        m = CSRMatrix.from_dense(np.array([[0.0, 3.0, 4.0], [0, 0, 0], [5, 0, 0]]))
        cols, vals = m.row(0)
        assert cols.tolist() == [1, 2]
        assert vals.tolist() == [3.0, 4.0]
        cols, vals = m.row(1)
        assert len(cols) == 0

    def test_row_nnz(self):
        m = CSRMatrix.from_dense(np.eye(4))
        assert m.row_nnz().tolist() == [1, 1, 1, 1]

    def test_footprint_formula(self):
        m = random_csr(50, 0.2, 0)
        assert m.footprint_bytes() == 12 * m.nnz + 20 * m.n_rows

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                n_rows=2,
                n_cols=2,
                indptr=np.array([0, 2]),  # wrong length
                indices=np.array([0, 1]),
                data=np.array([1.0, 2.0]),
            )

    def test_validation_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                n_rows=2,
                n_cols=2,
                indptr=np.array([0, 1, 2]),
                indices=np.array([0, 5]),
                data=np.array([1.0, 2.0]),
            )

    @pytest.mark.parametrize(
        "indptr,indices,row",
        [
            ([0, 3, 4], [0, 0, 0, 2], 0),  # a repeated column
            ([0, 1, 3], [1, 2, 0], 1),  # a decreasing row
            ([0, 0, 1, 1, 3, 3], [2, 1, 1], 3),  # empty rows around it
        ],
    )
    def test_validation_rejects_a_non_canonical_row(self, indptr, indices, row):
        with pytest.raises(ValueError, match=f"^row {row}: column ids must increase"):
            CSRMatrix(
                n_rows=len(indptr) - 1,
                n_cols=3,
                indptr=np.array(indptr),
                indices=np.array(indices),
                data=np.ones(len(indices)),
            )

    def test_validation_accepts_empty_rows_and_row_boundaries(self):
        m = CSRMatrix(
            n_rows=5,
            n_cols=3,
            indptr=np.array([0, 0, 2, 2, 3, 3]),
            indices=np.array([1, 2, 0]),  # 2 -> 0 crosses a row boundary
            data=np.ones(3),
        )
        assert m.row_nnz().tolist() == [0, 2, 0, 1, 0]
        assert CSRMatrix(0, 0, np.array([0]), np.array([]), np.array([])).nnz == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_constructor_builds_canonical_rows(self, family, tmp_path):
        """Each in-tree way to make a CSR passes the construction check."""
        m = generate(family, 300, 4000, seed=11)  # from_coo
        lower = m.lower_triangle()
        transposed = [t(m).as_transposed_csr() for t in (scan_trans, merge_trans)]
        assert transposed[0].to_dense().tobytes() == m.to_dense().T.tobytes()
        assert all(np.array_equal(t.indices, transposed[0].indices) for t in transposed)
        decoded = decode(encode(m))
        assert np.array_equal(decoded.indices, m.indices)
        ordered, _ = order_rows_by_length(m)
        write_mm(lower, tmp_path / "m.mtx")
        assert np.array_equal(read_mm(tmp_path / "m.mtx").indices, lower.indices)
        assert ordered.nnz == m.nnz

    def test_diagonal(self):
        dense = np.array([[1.0, 2.0], [0.0, 0.0]])
        m = CSRMatrix.from_dense(dense)
        assert m.diagonal().tolist() == [1.0, 0.0]

    def test_lower_triangle_adds_missing_diagonal(self):
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        low = CSRMatrix.from_dense(dense).lower_triangle()
        d = low.to_dense()
        assert d[0, 1] == 0.0  # upper removed
        assert d[0, 0] != 0.0 and d[1, 1] != 0.0  # diagonal inserted
        assert d[1, 0] == 2.0  # lower kept

    def test_lower_triangle_requires_square(self):
        m = CSRMatrix.from_scipy(sp.random(3, 4, density=0.5, format="csr"))
        with pytest.raises(ValueError):
            m.lower_triangle()

    def test_column_span_banded_vs_random(self):
        from repro.sparse import generators

        banded = generators.banded(200, 2000, seed=1)
        rand = generators.random_uniform(200, 2000, seed=1)
        assert banded.column_span() < rand.column_span()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 100))
    def test_scipy_roundtrip_property(self, n, seed):
        m = random_csr(n, 0.3, seed)
        again = CSRMatrix.from_scipy(m.to_scipy())
        np.testing.assert_allclose(again.to_dense(), m.to_dense())


class TestCSC:
    def test_col_view(self):
        m = CSCMatrix.from_scipy(
            sp.csc_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        )
        rows, vals = m.col(0)
        assert rows.tolist() == [0, 1]
        assert vals.tolist() == [1.0, 2.0]

    def test_to_csr_same_matrix(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        m = CSCMatrix.from_scipy(sp.csc_matrix(dense))
        np.testing.assert_allclose(m.to_csr().to_dense(), dense)

    def test_as_transposed_csr(self):
        dense = np.array([[1.0, 4.0], [0.0, 3.0]])
        m = CSCMatrix.from_scipy(sp.csc_matrix(dense))
        np.testing.assert_allclose(m.as_transposed_csr().to_dense(), dense.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            CSCMatrix(
                n_rows=2,
                n_cols=2,
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                data=np.array([1.0]),
            )


class TestCSR5:
    def test_transpose_order_full_tile(self):
        perm = _transpose_order(8, omega=2, sigma=4)
        # Column-major over a 4x2 logical grid.
        assert perm.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_transpose_order_ragged_is_identity(self):
        assert _transpose_order(5, omega=2, sigma=4).tolist() == [0, 1, 2, 3, 4]

    def test_encode_decode_roundtrip(self):
        m = random_csr(40, 0.2, 2)
        again = decode(encode(m))
        np.testing.assert_allclose(again.to_dense(), m.to_dense())

    def test_tile_sizes(self):
        m = random_csr(40, 0.2, 3)
        c5 = encode(m, omega=4, sigma=4)
        assert all(t.nnz <= 16 for t in c5.tiles)
        assert sum(t.nnz for t in c5.tiles) == m.nnz

    def test_bit_flags_mark_row_starts(self):
        m = CSRMatrix.from_dense(np.eye(6))
        c5 = encode(m, omega=2, sigma=2)
        # Every diagonal entry starts a row: all flags set.
        assert all(t.bit_flag.all() for t in c5.tiles)

    def test_spmv_matches_scipy(self):
        m = random_csr(60, 0.15, 4)
        x = np.random.default_rng(0).random(60)
        np.testing.assert_allclose(
            spmv_csr5(encode(m), x), m.to_scipy() @ x, atol=1e-12
        )

    def test_spmv_row_spanning_tiles(self):
        # One dense row spanning several tiles accumulates correctly.
        dense = np.zeros((4, 40))
        dense[1, :] = np.arange(1.0, 41.0)
        m = CSRMatrix.from_dense(dense)
        c5 = encode(m, omega=4, sigma=4)
        x = np.ones(40)
        y = spmv_csr5(c5, x)
        assert y[1] == pytest.approx(np.arange(1.0, 41.0).sum())
        assert y[0] == 0.0

    def test_spmv_rejects_bad_x(self):
        m = random_csr(10, 0.3, 5)
        with pytest.raises(ValueError):
            spmv_csr5(encode(m), np.ones(11))

    def test_footprint_matches_table2(self):
        m = random_csr(30, 0.3, 6)
        c5 = encode(m)
        assert c5.footprint_bytes() == 12 * m.nnz + 20 * m.n_rows

    def test_empty_rows_handled(self):
        dense = np.zeros((5, 5))
        dense[0, 0] = 1.0
        dense[4, 4] = 2.0
        m = CSRMatrix.from_dense(dense)
        y = spmv_csr5(encode(m), np.ones(5))
        np.testing.assert_allclose(y, [1.0, 0, 0, 0, 2.0])

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 40),
        density=st.floats(0.05, 0.6),
        seed=st.integers(0, 1000),
        omega=st.sampled_from([2, 4]),
        sigma=st.sampled_from([2, 8, 16]),
    )
    def test_spmv_property(self, n, density, seed, omega, sigma):
        m = random_csr(n, density, seed)
        x = np.random.default_rng(seed).standard_normal(n)
        got = spmv_csr5(encode(m, omega=omega, sigma=sigma), x)
        np.testing.assert_allclose(got, m.to_scipy() @ x, atol=1e-10)
