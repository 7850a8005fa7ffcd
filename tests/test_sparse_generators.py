"""Synthetic matrix generators, descriptors and the 968-matrix collection."""

import dataclasses

import numpy as np
import pytest

from repro.sparse import (
    COLLECTION_SIZE,
    FAMILIES,
    MATERIALIZE_NNZ_LIMIT,
    MIN_NNZ,
    MatrixDescriptor,
    build_collection,
    default_locality,
    default_parallelism,
    footprint_mb,
    from_matrix,
    from_params,
    generate,
    generators,
    materializable,
    measure_structure,
)


class TestGenerators:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_produces_square_nonempty(self, family):
        m = generate(family, 300, 4000, seed=11)
        assert m.is_square
        assert m.nnz > 0

    @pytest.mark.parametrize("family", ["banded", "random", "powerlaw", "block", "rmat"])
    def test_nnz_near_target(self, family):
        m = generate(family, 400, 8000, seed=1)
        # Duplicate collapsing loses some entries; stay within 2x.
        assert 0.3 * 8000 <= m.nnz <= 2.0 * 8000

    def test_determinism(self):
        a = generators.random_uniform(100, 1000, seed=5)
        b = generators.random_uniform(100, 1000, seed=5)
        np.testing.assert_allclose(a.to_dense(), b.to_dense())

    def test_different_seeds_differ(self):
        a = generators.random_uniform(100, 1000, seed=5)
        b = generators.random_uniform(100, 1000, seed=6)
        assert not np.allclose(a.to_dense(), b.to_dense())

    def test_banded_nonzero_diagonal(self):
        m = generators.banded(100, 1000, seed=2)
        assert (m.diagonal() != 0).all()

    def test_banded_stays_in_band(self):
        m = generators.banded(200, 1000, seed=3)
        coo = m.to_scipy().tocoo()
        per_row = max(1, 1000 // 200)
        half_band = max(1, (per_row + 1) // 2)
        assert (abs(coo.row - coo.col) <= half_band).all()

    def test_grid2d_structure(self):
        m = generators.grid2d(8)
        assert m.n_rows == 64
        # 5-point stencil: at most 5 nonzeros per row.
        assert m.row_nnz().max() <= 5

    def test_grid3d_structure(self):
        m = generators.grid3d(4)
        assert m.n_rows == 64
        assert m.row_nnz().max() <= 7

    def test_tridiagonal(self):
        m = generators.tridiagonal(10)
        coo = m.to_scipy().tocoo()
        assert (abs(coo.row - coo.col) <= 1).all()

    def test_rmat_skewed_degrees(self):
        m = generators.rmat(512, 8000, seed=4)
        degrees = m.row_nnz()
        # R-MAT produces a heavier tail than a uniform pattern.
        assert degrees.max() > 3 * max(1.0, degrees.mean())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate("fancy", 10, 100)


class TestDescriptors:
    def test_from_params_ranges(self):
        d = from_params("x", "banded", 10_000, 200_000, seed=1, jitter=0.3)
        assert 0.0 <= d.locality <= 1.0
        assert 1.0 <= d.parallelism <= d.n_rows
        assert d.footprint_bytes == 12 * d.nnz + 20 * d.n_rows

    @pytest.mark.parametrize("family", FAMILIES)
    def test_from_params_without_jitter_equals_the_seeded_formula(self, family):
        """At ``jitter=0`` no random number is drawn; each field equals,
        value and type, what the seeded wiggle (exactly 1.0) gives."""
        for n_rows, nnz, seed in (
            (64, 300, 0),
            (10_000, 200_000, 7),
            (1_000_000, 20_000_000, 2),
            (20_000_000, 300_000_000, 1),
        ):
            got = from_params("x", family, n_rows, nnz, seed=seed)
            rng = np.random.default_rng(seed)
            wiggle = 1.0 + 0.0 * (rng.random(2) * 2.0 - 1.0)
            par_base = default_parallelism(family, n_rows, nnz / max(1, n_rows))
            parallelism = max(1.0, par_base * wiggle[1])
            want = MatrixDescriptor(
                name="x",
                family=family,
                n_rows=n_rows,
                nnz=nnz,
                seed=seed,
                locality=float(np.clip(default_locality(family) * wiggle[0], 0.0, 1.0)),
                parallelism=min(parallelism, float(n_rows)),
            )
            fields = dataclasses.astuple(got), dataclasses.astuple(want)
            assert fields[0] == fields[1]
            assert [type(v) for v in fields[0]] == [type(v) for v in fields[1]]

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixDescriptor("x", "nope", 10, 10, 0, 0.5, 1.0)
        with pytest.raises(ValueError):
            MatrixDescriptor("x", "banded", 10, 10, 0, 1.5, 1.0)
        with pytest.raises(ValueError):
            MatrixDescriptor("x", "banded", 10, 10, 0, 0.5, 0.5)

    def test_materialize_small(self):
        d = from_params("x", "random", 500, 250_000, seed=2)
        m = d.materialize()
        assert m.n_rows == 500

    def test_materialize_guard(self):
        d = from_params("x", "random", 10**7, MATERIALIZE_NNZ_LIMIT + 1, seed=3)
        assert not d.can_materialize
        with pytest.raises(ValueError, match="materialization"):
            d.materialize()

    def test_measured_locality_orders_families(self):
        banded = generators.banded(400, 4000, seed=4)
        rand = generators.random_uniform(400, 4000, seed=4)
        loc_banded, _ = measure_structure(banded)
        loc_rand, _ = measure_structure(rand)
        assert loc_banded > loc_rand + 0.3

    def test_measured_parallelism_orders_families(self):
        chain = generators.tridiagonal(300)
        rand = generators.random_uniform(300, 3000, seed=5)
        _, par_chain = measure_structure(chain)
        _, par_rand = measure_structure(rand)
        assert par_chain < par_rand

    def test_from_matrix_measures(self):
        m = generators.banded(300, 3000, seed=6)
        d = from_matrix("b", m, family="banded")
        assert d.nnz == m.nnz
        assert d.locality > 0.5

    def test_default_parallelism_shapes(self):
        assert default_parallelism("tridiag", 10**6, 3) == 1.0
        assert default_parallelism("banded", 10**6, 20) < 5
        assert default_parallelism("grid2d", 10**6, 5) == pytest.approx(1000.0)
        assert default_parallelism("random", 10**6, 10) > 1000.0


class TestCollection:
    def test_exact_size(self):
        assert len(build_collection()) == COLLECTION_SIZE == 968

    def test_determinism(self):
        a = build_collection(50)
        b = build_collection(50)
        assert [d.name for d in a] == [d.name for d in b]
        assert [d.nnz for d in a] == [d.nnz for d in b]

    def test_nnz_filter(self):
        assert all(d.nnz > MIN_NNZ for d in build_collection(100))

    def test_footprint_span(self):
        coll = build_collection(300)
        fps = [footprint_mb(d) for d in coll]
        assert min(fps) < 10.0  # a few MB
        assert max(fps) > 4000.0  # multi-GB

    def test_family_diversity(self):
        families = {d.family for d in build_collection(200)}
        assert len(families) >= 6

    def test_materializable_subset(self):
        small = list(materializable(build_collection(100)))
        assert small
        assert all(d.can_materialize for d in small)

    def test_names_unique(self):
        names = [d.name for d in build_collection(200)]
        assert len(set(names)) == len(names)
