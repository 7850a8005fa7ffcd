"""Batched trace pipeline: exact equivalence with the scalar oracle.

The fast path is only allowed to be fast — never different. Every layer
(line expansion, generators, kernel chunk emitters, the hierarchy's
batched inner loop, the ndarray stack-distance path) is pinned
differentially against the plain-loop oracle in ``tests/scalar_oracle.py``
replayed through ``Hierarchy.access`` one reference at a time.
"""

import copy
import functools

import numpy as np
import pytest

from repro.experiments.ext04_prefetch import _workloads as ext4_workloads
from repro.kernels import (
    CholeskyKernel,
    FftKernel,
    GemmKernel,
    SpmvKernel,
    SptransKernel,
    SptrsvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.kernels.traces import MAX_EVENTS, kernel_trace_chunks
from repro.memory import (
    Hierarchy,
    NextLinePrefetcher,
    SetAssociativeCache,
    StridePrefetcher,
    VictimCache,
    for_broadwell,
    for_knl,
)
from repro.memory.hierarchy import _CacheStage
from repro.platforms import McdramMode, broadwell, knl
from repro.sparse import generators
from repro.trace import (
    CHUNK,
    chunk_arrays,
    expand_lines,
    pointer_chase_array,
    repeated_sweep_array,
    sampled_stack_distances,
    sequential_array,
    stack_distances,
    strided_array,
    tiled_2d_array,
    uniform_random_array,
)
from tests.scalar_oracle import (
    Access,
    kernel_trace,
    pointer_chase,
    repeated_sweep,
    replay,
    sequential,
    strided,
    tiled_2d,
    to_line_trace,
    uniform_random,
)

SCALE = 0.001


def _stats_dict(stats):
    return {lvl.name: lvl.counters() for lvl in stats.levels}


def _full_state(h):
    """Everything the simulator holds, not just the level counters.

    Per-set LRU order and dirty bits (touched sets in set-index order;
    an empty set is left out, since a read-only probe may create one)
    plus the replacement and dirty-flow counters of every cache (stages,
    eDRAM victim cache, KNL MCDRAM cache), the dirty ledger, and the
    prefetcher's statistics, outstanding set and predictor state. The
    writeback books must close.
    """
    assert h.conservation_violations() == []
    caches = [stage.cache for stage in h._stages]
    if h._victim is not None:
        caches.append(h._victim.cache)
    if h._mcdram_cache is not None:
        caches.append(h._mcdram_cache)
    pf = h._prefetcher
    return {
        "levels": _stats_dict(h.stats()),
        "sets": [sorted((k, list(s.items())) for k, s in c._sets.items() if s) for c in caches],
        "counters": [c.telemetry_counters() for c in caches],
        "ledger": h.dirty_ledger(),
        "prefetch": None
        if pf is None
        else {k: v for k, v in vars(pf).items() if k not in ("cache", "on_evict")},
    }


def _random_trace(seed, n=8_000, span=5_000, p_write=0.4):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, span, size=n).astype(np.int64)
    writes = rng.random(n) < p_write
    return addrs, writes


@functools.lru_cache(maxsize=None)
def _zoo_line_trace(name, reps, line):
    """A zoo kernel's oracle line trace: generated once per (kernel, reps,
    line) and shared by every test that replays it."""
    return tuple(to_line_trace(kernel_trace(kernel_zoo()[name], reps=reps), line))


def _oracle_replay(name, hierarchy, *, reps):
    """A zoo kernel's oracle trace fed through ``Hierarchy.access``."""
    return replay(hierarchy, _zoo_line_trace(name, reps, hierarchy.line))


def kernel_zoo():
    """Small instances of all eight paper kernels."""
    return {
        "stream": StreamKernel(n=1500),
        "gemm": GemmKernel(order=20, tile=8),
        "cholesky": CholeskyKernel(order=20, tile=8),
        "spmv": SpmvKernel.from_matrix(generators.random_uniform(150, 900, seed=1)),
        "sptrans": SptransKernel.from_matrix(
            generators.random_uniform(120, 600, seed=2)
        ),
        "sptrsv": SptrsvKernel.from_matrix(generators.banded(120, 600, seed=3)),
        "stencil": StencilKernel(nx=18, ny=18, nz=18, steps=1),
        "fft": FftKernel(size=8),
    }


class TestExpandLines:
    def test_matches_to_line_trace_word_accesses(self):
        addrs = np.array([0, 8, 64, 120, 4096], dtype=np.int64)
        writes = np.array([False, True, False, True, False])
        accesses = [Access(int(a), size=8, write=bool(w)) for a, w in zip(addrs, writes)]
        expected = list(to_line_trace(accesses, 64))
        la, lw = expand_lines(addrs, 8, writes, 64)
        assert list(zip(la.tolist(), lw.tolist())) == expected

    def test_straddling_accesses_expand_in_order(self):
        # 8 bytes at 60 cross a 64B boundary; 200 bytes at 100 span 4 lines.
        addrs = np.array([60, 100], dtype=np.int64)
        sizes = np.array([8, 200], dtype=np.int64)
        accesses = [Access(60, size=8, write=True), Access(100, size=200)]
        expected = list(to_line_trace(accesses, 64))
        la, lw = expand_lines(addrs, sizes, np.array([True, False]), 64)
        assert list(zip(la.tolist(), lw.tolist())) == expected

    def test_scalar_broadcasts(self):
        la, lw = expand_lines(np.array([0, 64, 128]), 4, True, 64)
        assert la.tolist() == [0, 1, 2]
        assert lw.tolist() == [True, True, True]

    def test_empty(self):
        la, lw = expand_lines(np.empty(0, dtype=np.int64), 8, False, 64)
        assert la.size == 0 and lw.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_lines(np.zeros((2, 2), dtype=np.int64), 8, False)
        with pytest.raises(ValueError):
            expand_lines(np.array([0, 64]), 0, False)


class TestChunking:
    def test_chunk_arrays_slices_everything(self):
        addrs = np.arange(1000, dtype=np.int64)
        writes = np.zeros(1000, dtype=bool)
        chunks = list(chunk_arrays(addrs, writes, chunk=300))
        assert [len(c[0]) for c in chunks] == [300, 300, 300, 100]
        assert np.concatenate([c[0] for c in chunks]).tolist() == addrs.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            list(chunk_arrays(np.zeros(1, dtype=np.int64), np.zeros(1, bool), 0))


class TestGeneratorArrays:
    """Each ``*_array`` generator replays its scalar twin exactly."""

    CASES = [
        (
            lambda: sequential(64, 300, word=8, write=True),
            lambda: sequential_array(64, 300, word=8, write=True),
        ),
        (
            lambda: strided(128, 200, 96),
            lambda: strided_array(128, 200, 96),
        ),
        (
            lambda: repeated_sweep(0, 150, 4, write=True),
            lambda: repeated_sweep_array(0, 150, 4, write=True),
        ),
        (
            lambda: tiled_2d(0, 50, 70, 16, 24),
            lambda: tiled_2d_array(0, 50, 70, 16, 24),
        ),
        (
            lambda: uniform_random(0, 5000, 800, seed=9),
            lambda: uniform_random_array(0, 5000, 800, seed=9),
        ),
        (
            lambda: pointer_chase(0, 4000, 600, seed=11),
            lambda: pointer_chase_array(0, 4000, 600, seed=11),
        ),
    ]

    @pytest.mark.parametrize("scalar_fn,array_fn", CASES)
    def test_equivalent(self, scalar_fn, array_fn):
        scalar = [(a.addr, a.write) for a in scalar_fn()]
        addrs, writes = array_fn()
        assert list(zip(addrs.tolist(), writes.tolist())) == scalar

    def test_empty_pointer_chase(self):
        addrs, writes = pointer_chase_array(0, 10, 0)
        assert addrs.size == 0 and writes.size == 0


class TestRunArray:
    def test_argument_forms(self):
        addrs = np.array([1, 2, 3, 1, 2, 3], dtype=np.int64)
        for writes in (None, False, True, np.array([True, False] * 3)):
            h = for_broadwell(broadwell(), scale=SCALE)
            stats = h.run_array(addrs, writes)
            assert stats["L1"].accesses == 6

    def test_rejects_bad_input(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="dtype float64"):
            h.run_array(np.array([1.5, 2.5]))
        with pytest.raises(ValueError, match="1-D"):
            h.run_array(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="writes shape"):
            h.run_array(np.array([1, 2, 3]), np.array([True]))

    def test_rejects_negative_addresses(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match=r"addrs\[2\] = -7"):
            h.run_array(np.array([1, 2, -7, 3], dtype=np.int64))

    def test_rejects_float_writes(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="writes must be bool"):
            h.run_array(np.array([1, 2], dtype=np.int64), np.array([0.5, 1.0]))

    def test_integer_writes_accepted(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        stats = h.run_array(
            np.array([1, 2, 3], dtype=np.int64), np.array([0, 1, 0])
        )
        assert stats["L1"].accesses == 3

    def test_run_and_run_lines_reject_negative_addresses(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match=r"addrs\[0\] = -7"):
            h.run([(-7, False)])
        with pytest.raises(ValueError, match=r"addrs\[1\] = -7"):
            h.run_lines([3, -7])
        assert h.stats().total_accesses == 0

    def test_run_and_run_lines_match_access(self):
        # Longer than one CHUNK, so the adapters cut more than one batch;
        # full-size caches keep the L1-resident reference replay cheap.
        addrs, writes = _random_trace(24, n=CHUNK + 1000, span=300)
        pairs = list(zip(addrs.tolist(), writes.tolist()))
        stores = [(a, True) for a, _ in pairs]
        for drive, trace in (
            (lambda h: h.run(iter(pairs)), pairs),
            (lambda h: h.run_lines(iter(addrs.tolist()), write=True), stores),
        ):
            got = drive(for_broadwell(broadwell()))
            want = replay(for_broadwell(broadwell()), trace)
            assert _stats_dict(got) == _stats_dict(want)

    def test_run_batched_rejects_bad_chunk(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        chunks = [(np.array([1, 2], dtype=np.int64), None), (np.array([-1]), None)]
        with pytest.raises(ValueError, match="non-negative"):
            h.run_batched(chunks)

    @pytest.mark.parametrize("prefetch", [None, "next-line", "stride"])
    @pytest.mark.parametrize("edram", [True, False])
    def test_broadwell_identical_to_scalar(self, edram, prefetch):
        addrs, writes = _random_trace(21)
        scalar = for_broadwell(broadwell(), edram=edram, scale=SCALE, prefetch=prefetch)
        batched = for_broadwell(broadwell(), edram=edram, scale=SCALE, prefetch=prefetch)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        for chunk_a, chunk_w in chunk_arrays(addrs, writes, chunk=1900):
            batched.run_array(chunk_a, chunk_w)
        assert _full_state(batched) == _full_state(scalar)

    @pytest.mark.parametrize("mode", list(McdramMode))
    def test_knl_identical_to_scalar(self, mode):
        addrs, writes = _random_trace(22)
        scalar = for_knl(knl(mode), mode, scale=SCALE)
        batched = for_knl(knl(mode), mode, scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        batched.run_array(addrs, writes)
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    def test_run_batched_matches_run_array(self):
        addrs, writes = _random_trace(23)
        one = for_broadwell(broadwell(), scale=SCALE)
        many = for_broadwell(broadwell(), scale=SCALE)
        one.run_array(addrs, writes)
        many.run_batched(chunk_arrays(addrs, writes, chunk=777))
        assert _stats_dict(many.stats()) == _stats_dict(one.stats())


class TestKernelTraceChunks:
    """Acceptance: all eight kernel traces replay identically batched."""

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_chunks_equal_scalar_line_trace(self, name):
        kernel = kernel_zoo()[name]
        expected = list(_zoo_line_trace(name, 2, 64))
        got = []
        for la, lw in kernel_trace_chunks(kernel, reps=2, line=64, chunk=4096):
            got.extend(zip(la.tolist(), lw.tolist()))
        assert got == expected

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical(self, name):
        kernel = kernel_zoo()[name]
        scalar_h = for_broadwell(broadwell(), scale=SCALE)
        batched_h = for_broadwell(broadwell(), scale=SCALE)
        s = _oracle_replay(name, scalar_h, reps=2)
        b = kernel.simulate(batched_h, reps=2)
        assert _stats_dict(b) == _stats_dict(s)

    @pytest.mark.parametrize("mode", list(McdramMode))
    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical_knl_all_modes(self, name, mode):
        """Full matrix: every kernel, every MCDRAM mode, exact equality."""
        kernel = kernel_zoo()[name]
        scalar_h = for_knl(knl(mode), mode, scale=SCALE)
        batched_h = for_knl(knl(mode), mode, scale=SCALE)
        s = _oracle_replay(name, scalar_h, reps=1)
        b = kernel.simulate(batched_h, reps=1)
        assert _stats_dict(b) == _stats_dict(s)

    @pytest.mark.parametrize("prefetch", ["next-line", "stride"])
    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical_with_prefetch(self, name, prefetch):
        """Prefetching hierarchies take the level passes too, with each
        reference's observation merged into the LLC pass; the whole
        simulator state must match the scalar observe-then-walk."""
        kernel = kernel_zoo()[name]
        scalar_h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        batched_h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        _oracle_replay(name, scalar_h, reps=1)
        kernel.simulate(batched_h, reps=1)
        assert _full_state(batched_h) == _full_state(scalar_h)

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_reps_zero_yields_nothing(self, name):
        kernel = kernel_zoo()[name]
        assert list(kernel_trace_chunks(kernel, reps=0)) == []

    def test_negative_reps_rejected(self):
        with pytest.raises(ValueError, match="reps must be >= 0"):
            kernel_trace_chunks(StreamKernel(n=10), reps=-1)


PREFETCH_FUZZ_SHAPES = ("random", "strided", "hot")


def _fuzz_trace(rng, shape):
    """A random, piecewise-strided or L1-hot trace, and a cache scale."""
    n = int(rng.integers(6_000, 12_000))
    scale = float(rng.choice([SCALE, 0.01, 1.0]))
    if shape == "random":
        addrs = rng.integers(0, int(rng.integers(50, 6000)), size=n)
    else:
        # Piecewise-strided runs, incl. zero and negative strides.
        runs = []
        while sum(map(len, runs)) < n:
            stride = int(rng.choice([0, 1, 3, -2, 7]))
            start = int(rng.integers(0, 5000))
            runs.append(np.abs(start + stride * np.arange(rng.integers(1, 400))))
        addrs = np.concatenate(runs)[:n]
        if shape == "hot":
            addrs %= int(rng.integers(2, 9))
            scale = SCALE
    writes = rng.random(n) < float(rng.random())
    return addrs.astype(np.int64), writes, scale


def _tiny_prefetching_pair(rng):
    """Two equal hierarchies of three single-set stages (1-5 ways each)
    under a next-line or stride prefetcher of degree 1-2 (confirm 1-2),
    with or without a one-set victim cache."""
    ways = rng.integers(1, 6, size=3).tolist()
    stride = bool(rng.random() < 0.5)
    degree, confirm = rng.integers(1, 3, size=2).tolist()
    victim_ways = int(rng.integers(0, 4))

    def build():
        stages = [
            _CacheStage(name, SetAssociativeCache(64 * w, line=64, ways=w))
            for name, w in zip(("L1", "L2", "L3"), ways)
        ]
        llc = stages[-1].cache
        if stride:
            pf = StridePrefetcher(llc, degree=degree, confirm=confirm)
        else:
            pf = NextLinePrefetcher(llc, degree=degree)
        victim = VictimCache(64 * victim_ways, ways=victim_ways) if victim_ways else None
        return Hierarchy(stages, line=64, victim=victim, prefetcher=pf)

    return build(), build()


def _tiny_trace(rng):
    """10-120 references over 4-24 lines: short random walks of steps
    -1..2 (repeats, strides, turns) from random starts, folded into the
    span, at a random write rate."""
    n = int(rng.integers(10, 121))
    span = int(rng.integers(4, 25))
    runs = []
    while sum(map(len, runs)) < n:
        start = int(rng.integers(0, span))
        length = int(rng.integers(1, 12))
        runs.append(start + np.cumsum(rng.integers(-1, 3, size=length)))
    addrs = np.abs(np.concatenate(runs)[:n]) % span
    return addrs.astype(np.int64), rng.random(n) < float(rng.random())


def _random_splits(rng, addrs, writes):
    """``(addrs, writes)`` cut into chunks of 1..9000 references."""
    chunks = []
    pos = 0
    while pos < addrs.shape[0]:
        size = int(rng.integers(1, 9001))
        chunks.append((addrs[pos : pos + size], writes[pos : pos + size]))
        pos += size
    return chunks


class TestFuzzDifferential:
    """Seeded fuzz: randomized chunk sizes and degenerate shapes must
    stay byte-identical to the scalar oracle (satellite for the
    set-bucketed rewrite — the adaptive block splitter must not leak
    state across arbitrary chunk boundaries)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunk_splits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6000))
        span = int(rng.integers(1, 4000))
        addrs = rng.integers(0, span, size=n).astype(np.int64)
        writes = rng.random(n) < float(rng.random())
        scalar = for_broadwell(broadwell(), scale=SCALE)
        batched = for_broadwell(broadwell(), scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)

        def chunks():
            pos = 0
            while pos < n:
                size = int(rng.integers(1, 900))
                yield addrs[pos : pos + size], writes[pos : pos + size]
                pos += size
                if rng.random() < 0.2:  # interleave empty chunks
                    yield np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

        batched.run_batched(chunks())
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("wr", [True, False])
    def test_scalar_bool_writes_broadcast(self, seed, wr):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 2000, size=3000).astype(np.int64)
        scalar = for_broadwell(broadwell(), scale=SCALE)
        batched = for_broadwell(broadwell(), scale=SCALE)
        for a in addrs.tolist():
            scalar.access(a, write=wr)
        batched.run_array(addrs, wr)
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    def test_zero_length_only_stream(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        empty = np.empty(0, dtype=np.int64)
        h.run_batched([(empty, None), (empty, np.empty(0, dtype=bool))])
        assert h.stats().total_accesses == 0

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("edram", [True, False])
    @pytest.mark.parametrize("prefetch", ["next-line", "stride"])
    @pytest.mark.parametrize("shape", PREFETCH_FUZZ_SHAPES)
    def test_prefetch_full_state(self, shape, prefetch, edram, seed):
        """Prefetching replay vs access(), on the whole simulator state,
        across random chunk splits (which cut the merged LLC stream and
        carry the stride predictor over at arbitrary points). "hot"
        folds the strided runs into the 8-line L1, so whole blocks
        resolve above the LLC and only their observations remain."""
        shape_id = PREFETCH_FUZZ_SHAPES.index(shape)
        rng = np.random.default_rng([seed, edram, prefetch == "stride", shape_id])
        addrs, writes, scale = _fuzz_trace(rng, shape)
        scalar = for_broadwell(broadwell(), edram=edram, scale=scale, prefetch=prefetch)
        batched = for_broadwell(broadwell(), edram=edram, scale=scale, prefetch=prefetch)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        for chunk_a, chunk_w in _random_splits(rng, addrs, writes):
            batched.run_array(chunk_a, chunk_w)
        assert _full_state(batched) == _full_state(scalar)

    def test_tiny_prefetching_hierarchies(self):
        """The LLC pass skips observations that change nothing: a zero-
        stride one unless its line is outstanding at block start or a
        candidate of the block's issuing ones, and a repeat of a (line,
        stride) that issued nothing since the last LLC fill. In one-set
        caches of a few ways every fill evicts and prefetches collide, so
        a skip rule that misses a fill (demand miss, insert miss, install),
        keys on the line alone, or forgets either source of outstanding
        lines diverges from access() within tens of trials."""
        for trial in range(300):
            rng = np.random.default_rng([trial, 2])
            scalar, batched = _tiny_prefetching_pair(rng)
            addrs, writes = _tiny_trace(rng)
            for a, w in zip(addrs.tolist(), writes.tolist()):
                scalar.access(a, write=w)
            pos = 0
            while pos < addrs.shape[0]:
                size = int(rng.integers(1, 41))
                batched.run_array(addrs[pos : pos + size], writes[pos : pos + size])
                pos += size
            assert _full_state(batched) == _full_state(scalar), trial

    def test_prefetch_observes_blocks_resolved_above_the_llc(self):
        """A block that never reaches the LLC still replays its
        observations when they would issue: here the second chunk only
        hits the 8-line L1, but confirms a stride whose candidates the
        LLC has not seen."""
        scalar = for_broadwell(broadwell(), scale=SCALE, prefetch="stride")
        batched = for_broadwell(broadwell(), scale=SCALE, prefetch="stride")
        # No two equal strides in a row: warms L1 without prefetching.
        warm = np.tile([0, 5, 1, 7, 3, 6, 2, 4], 600)
        for chunk in (warm, np.tile([0, 2, 4, 6], 1500)):
            chunk = chunk.astype(np.int64)
            for a in chunk.tolist():
                scalar.access(a)
            batched.run_array(chunk)
        assert batched.stats()["L1"].misses == 8
        assert batched._prefetcher.stats.issued == 4  # lines 8, 10, 12, 14
        assert _full_state(batched) == _full_state(scalar)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_chunk_splits_knl(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 3000, size=5000).astype(np.int64)
        writes = rng.random(5000) < 0.3
        mode = list(McdramMode)[seed % len(list(McdramMode))]
        scalar = for_knl(knl(mode), mode, scale=SCALE)
        batched = for_knl(knl(mode), mode, scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        sizes = []
        pos = 0
        while pos < 5000:
            s = int(rng.integers(1, 1500))
            sizes.append(s)
            pos += s
        pos = 0
        for s in sizes:
            batched.run_array(addrs[pos : pos + s], writes[pos : pos + s])
            pos += s
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())


def _repeated_access(hierarchy, addrs, writes, reps):
    """``Hierarchy.access`` on ``reps`` concatenated repetitions."""
    replay(hierarchy, zip(addrs.tolist() * reps, writes.tolist() * reps))
    return hierarchy


#: ext4's prefetchers, its replay group's receiver first.
EXT4_KINDS = ("next-line", None, "stride")


@pytest.fixture(scope="session")
def ext4_access_states():
    """Whole state after ``access()`` on 2 and 3 repetitions of ext4's
    quick GEMM and SpMV-random traces under each of ext4's prefetchers
    (GEMM under a prefetcher on 2 only). One hierarchy runs both counts;
    copies keep the first state. The one oracle of these traces for
    every test that replays them."""
    states = {}
    for name in ("gemm", "spmv-random"):
        chunks = list(kernel_trace_chunks(ext4_workloads(quick=True)[name]))
        addrs = np.concatenate([a for a, _ in chunks])
        writes = np.concatenate([w for _, w in chunks])
        for kind in EXT4_KINDS:
            h = for_broadwell(broadwell(), scale=SCALE, prefetch=kind)
            states[name, kind, 2] = copy.deepcopy(_full_state(_repeated_access(h, addrs, writes, 2)))
            if name == "spmv-random" or kind is None:
                states[name, kind, 3] = _full_state(_repeated_access(h, addrs, writes, 1))
    return states


@pytest.fixture(scope="module")
def ext4_group():
    """ext4's quick replay group of one workload, both repetitions
    streamed: replayed on first use, then shared by the tests that read
    it."""
    groups = {}

    def replayed(name):
        if name not in groups:
            group = [for_broadwell(broadwell(), scale=SCALE, prefetch=k) for k in EXT4_KINDS]
            kernel = ext4_workloads(quick=True)[name]
            group[0].run_batched(kernel_trace_chunks(kernel, reps=2), also=group[1:])
            groups[name] = group
        return groups[name]

    return replayed


class TestGroupReplay:
    """``run_batched(also=...)``: the levels above the LLC replay once for
    the whole group, and every member must still end exactly as its own
    solo replay, on the whole simulator state."""

    @pytest.mark.parametrize("name", list(ext4_workloads(quick=True)))
    def test_ext4_members_match_solo_replays(self, name, ext4_group, ext4_access_states):
        """Each member against its solo replay or, where the shared oracle
        holds the trace (GEMM, SpMV-random), against ``access()``, which a
        solo replay must equal."""
        for h, kind in zip(ext4_group(name), EXT4_KINDS):
            expected = ext4_access_states.get((name, kind, 2))
            if expected is None:
                solo = for_broadwell(broadwell(), scale=SCALE, prefetch=kind)
                solo.run_batched(kernel_trace_chunks(ext4_workloads(quick=True)[name], reps=2))
                expected = _full_state(solo)
            assert _full_state(h) == expected, kind

    def test_ext4_gemm_group_prunes_most_observations(self, ext4_group):
        """Every replayed reference's prefetch observation is probed or
        pruned. On GEMM next-line prunes over 80% (repeats since the last
        LLC fill) and stride over 99% (unconfirmed strides)."""
        chunks = kernel_trace_chunks(ext4_workloads(quick=True)["gemm"])
        refs = 2 * sum(a.shape[0] for a, _ in chunks)
        pruned = {}
        for h, kind in zip(ext4_group("gemm"), EXT4_KINDS):
            if kind is None:
                assert h.observed == h.probed == 0
                continue
            assert h.observed == refs, kind
            pruned[kind] = (h.observed - h.probed) / refs
        assert pruned["next-line"] >= 0.8 and pruned["stride"] >= 0.99, pruned

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", PREFETCH_FUZZ_SHAPES)
    def test_mixed_group_matches_access(self, shape, seed):
        """Every prefetcher with eDRAM on and off in one group, the receiver
        drawn at random, over random chunk splits and two calls."""
        rng = np.random.default_rng([seed, PREFETCH_FUZZ_SHAPES.index(shape), 16])
        addrs, writes, scale = _fuzz_trace(rng, shape)
        configs = [(k, e) for k in (None, "next-line", "stride") for e in (True, False)]
        configs = [configs[i] for i in rng.permutation(len(configs))]
        group = [for_broadwell(broadwell(), edram=e, scale=scale, prefetch=k) for k, e in configs]
        chunks = _random_splits(rng, addrs, writes)
        cut = len(chunks) // 2
        for part in (chunks[:cut], chunks[cut:]):
            group[0].run_batched(part, also=group[1:])
        for h, (kind, edram) in zip(group, configs):
            scalar = for_broadwell(broadwell(), edram=edram, scale=scale, prefetch=kind)
            replay(scalar, zip(addrs.tolist(), writes.tolist()))
            assert _full_state(h) == _full_state(scalar)

    def test_knl_modes_share_l1_only(self):
        """L2 is the LLC on KNL: the group shares L1, and each MCDRAM
        mode replays its own L2 and memory side."""
        addrs, writes = _random_trace(31)
        modes = list(McdramMode)
        group = [for_knl(knl(m), m, scale=SCALE) for m in modes]
        group[0].run_batched(chunk_arrays(addrs, writes, chunk=1500), also=group[1:])
        for h, mode in zip(group, modes):
            scalar = for_knl(knl(mode), mode, scale=SCALE)
            replay(scalar, zip(addrs.tolist(), writes.tolist()))
            assert _full_state(h) == _full_state(scalar)
            l1, l2 = h._stages
            assert (l1.wholesale + l1.walked > 0) == (h is group[0])
            assert l2.wholesale + l2.walked > 0

    def test_follower_with_history_matches_solo_twin(self):
        warm_a, warm_w = _random_trace(32, n=3_000)
        addrs, writes = _random_trace(33)
        kinds = ("stride", None, "next-line")
        group = [for_broadwell(broadwell(), scale=SCALE, prefetch=k) for k in kinds]
        twins = [for_broadwell(broadwell(), scale=SCALE, prefetch=k) for k in kinds]
        for h in group + twins:
            h.run_array(warm_a, warm_w)
        # A new epoch for one member: the same contents as the receiver
        # again, but other monotone counters and a ledger baseline.
        for h in (group[1], twins[1]):
            h.reset()
            h.run_array(warm_a, warm_w)
        assert group[1]._stages[0].cache.n_evictions != group[0]._stages[0].cache.n_evictions
        group[0].run_batched(chunk_arrays(addrs, writes, chunk=2000), also=group[1:])
        for h, twin in zip(group, twins):
            twin.run_batched(chunk_arrays(addrs, writes, chunk=2000))
            assert h.conservation_violations() == []
            assert _full_state(h) == _full_state(twin)

    def test_bad_chunk_stops_every_member_where_solo_stops(self):
        addrs, writes = _random_trace(34)
        chunks = list(chunk_arrays(addrs, writes, chunk=3000))
        chunks.insert(2, (np.array([5, -1], dtype=np.int64), None))
        kinds = ("next-line", None, "stride")
        group = [for_broadwell(broadwell(), scale=SCALE, prefetch=k) for k in kinds]
        with pytest.raises(ValueError, match="non-negative"):
            group[0].run_batched(chunks, also=group[1:])
        for h, kind in zip(group, kinds):
            solo = for_broadwell(broadwell(), scale=SCALE, prefetch=kind)
            with pytest.raises(ValueError, match="non-negative"):
                solo.run_batched(chunks)
            assert solo.stats()["L1"].accesses == 6000
            assert _full_state(h) == _full_state(solo)

    @pytest.mark.parametrize("case", ["scale", "l1-order", "receiver", "duplicate"])
    def test_rejected_group_mutates_nothing(self, case):
        receiver = for_broadwell(broadwell(), scale=SCALE, prefetch="next-line")
        other = for_broadwell(broadwell(), scale=0.01 if case == "scale" else SCALE)
        also = {"receiver": (other, receiver), "duplicate": (other, other)}.get(case, (other,))
        if case == "l1-order":
            # The same four lines everywhere, in another LRU order in L1.
            receiver.run_array(np.array([0, 1, 2, 3]))
            other.run_array(np.array([1, 0, 2, 3]))
        before = [_full_state(h) for h in (receiver, other)]
        with pytest.raises(ValueError, match="replay group"):
            receiver.run_batched(chunk_arrays(*_random_trace(35), chunk=1000), also=also)
        assert [_full_state(h) for h in (receiver, other)] == before


class TestRepeatedReplay:
    """``run_batched(chunks, reps=N)`` replays one repetition N times and
    stops running the levels above the LLC once they repeat; every level
    must still end exactly as ``access()`` on the concatenated
    repetitions leaves it."""

    @pytest.mark.parametrize("reps", [2, 3])
    @pytest.mark.parametrize("name", ["gemm", "spmv-random"])
    def test_ext4_traces_match_access(self, name, reps, ext4_access_states):
        """L1 and L2 repeat within the first sub-blocks and the L3 soon
        after, but the eDRAM does not: it promotes dirty lines into the L3
        at other points in each repetition, so a replay that also skipped
        the LLC once it repeated would diverge here."""
        h = for_broadwell(broadwell(), scale=SCALE)
        h.run_batched(kernel_trace_chunks(ext4_workloads(quick=True)[name]), reps=reps)
        assert _full_state(h) == ext4_access_states[name, None, reps]
        l1, l2, l3 = h._stages
        assert l1.fast_forwarded > 0 and l2.fast_forwarded > 0 and l3.fast_forwarded == 0

    @pytest.mark.parametrize("reps", [2, 3])
    def test_prefetching_group_matches_access(self, reps, ext4_access_states):
        """ext4's replay group: every member's LLC pass, prefetch
        observations included, takes the recorded residue."""
        group = [for_broadwell(broadwell(), scale=SCALE, prefetch=k) for k in EXT4_KINDS]
        kernel = ext4_workloads(quick=True)["spmv-random"]
        group[0].run_batched(kernel_trace_chunks(kernel), also=group[1:], reps=reps)
        for h, kind in zip(group, EXT4_KINDS):
            assert _full_state(h) == ext4_access_states["spmv-random", kind, reps], kind
        assert group[0]._stages[0].fast_forwarded > 0

    def test_trace_shorter_than_a_sub_block_never_repeats(self):
        addrs, writes = _random_trace(36, n=3_000)
        h = for_broadwell(broadwell(), scale=SCALE, prefetch="stride")
        h.run_batched([(addrs, writes)], reps=3)
        assert [st.fast_forwarded for st in h._stages] == [0, 0, 0]
        scalar = for_broadwell(broadwell(), scale=SCALE, prefetch="stride")
        assert _full_state(h) == _full_state(_repeated_access(scalar, addrs, writes, 3))

    def test_checkpoints_compare_dirty_bits(self):
        """At the second checkpoint the second repetition's L1 holds the
        first's lines in the first's LRU order, but one of them dirty: the
        first repetition's write to it created a dirty line, the second's
        does not, so the replay must not fast-forward there."""
        hot = np.tile(np.arange(8), 512)
        addrs = np.concatenate([hot, [0], hot[:4_800]]).astype(np.int64)
        writes = np.zeros(addrs.shape[0], dtype=bool)
        writes[hot.shape[0]] = True
        h = for_broadwell(broadwell(), scale=SCALE)
        h.run_batched([(addrs, writes)], reps=2)
        scalar = _repeated_access(for_broadwell(broadwell(), scale=SCALE), addrs, writes, 2)
        assert _full_state(h) == _full_state(scalar)
        assert h._stages[0].fast_forwarded == addrs.shape[0] - 2 * 4096

    def test_knl_modes_fast_forward_l1_only(self):
        """On KNL only L1 sits above the LLC (L2)."""
        addrs, writes = _random_trace(37)
        modes = (McdramMode.CACHE, McdramMode.FLAT, McdramMode.HYBRID)
        group = [for_knl(knl(m), m, scale=SCALE) for m in modes]
        group[0].run_batched(chunk_arrays(addrs, writes, chunk=1500), also=group[1:], reps=2)
        for h, mode in zip(group, modes):
            scalar = _repeated_access(for_knl(knl(mode), mode, scale=SCALE), addrs, writes, 2)
            assert _full_state(h) == _full_state(scalar)
        l1, l2 = group[0]._stages
        assert l1.fast_forwarded > 0 and l2.fast_forwarded == 0

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", PREFETCH_FUZZ_SHAPES)
    def test_random_chunk_splits(self, shape, seed):
        """Random chunk splits (so random sub-block and checkpoint
        boundaries), repetition counts, and a two-member group."""
        rng = np.random.default_rng([seed, PREFETCH_FUZZ_SHAPES.index(shape), 21])
        addrs, writes, scale = _fuzz_trace(rng, shape)
        reps = int(rng.integers(2, 4))
        configs = [(k, e) for k in (None, "next-line", "stride") for e in (True, False)]
        configs = [configs[i] for i in rng.permutation(len(configs))[:2]]
        group = [for_broadwell(broadwell(), edram=e, scale=scale, prefetch=k) for k, e in configs]
        group[0].run_batched(_random_splits(rng, addrs, writes), also=group[1:], reps=reps)
        for h, (kind, edram) in zip(group, configs):
            scalar = for_broadwell(broadwell(), edram=edram, scale=scale, prefetch=kind)
            assert _full_state(h) == _full_state(_repeated_access(scalar, addrs, writes, reps))

    def test_reps_zero_replays_nothing(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        h.run_batched(chunk_arrays(*_random_trace(38)), reps=0)
        assert _full_state(h) == _full_state(for_broadwell(broadwell(), scale=SCALE))

    def test_negative_reps_rejected(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="reps must be >= 0"):
            h.run_batched(chunk_arrays(*_random_trace(39)), reps=-1)
        assert h.stats().total_accesses == 0

    def test_simulate_guards_all_repetitions(self):
        """``Kernel.simulate`` replays one traced repetition ``reps`` times,
        and still refuses repetitions that together exceed the guard."""
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="trace guard"):
            StreamKernel(n=10).simulate(h, reps=MAX_EVENTS)
        assert h.stats().total_accesses == 0


class TestStackDistanceNdarray:
    def test_ndarray_equals_list_path(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 400, size=6000)
        assert (
            stack_distances(arr).distances.tolist()
            == stack_distances(arr.tolist()).distances.tolist()
        )

    def test_hashable_keys_still_supported(self):
        prof = stack_distances(["a", "b", "a", "c", "b"])
        assert prof.distances.tolist() == [-1, -1, 1, -1, 2]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            stack_distances(np.zeros((2, 2), dtype=np.int64))
        # Tuple keys make a 2-D (or ragged) array, not a trace.
        with pytest.raises(ValueError):
            stack_distances([(1, 2), (3, 4), (1, 2)])
        with pytest.raises(ValueError):
            stack_distances([(1, 2), (3,)])

    def test_sampled_ndarray_equals_list_path(self):
        rng = np.random.default_rng(4)
        arr = rng.integers(0, 300, size=10_000)
        a = sampled_stack_distances([arr], window=512, period=3, seed=5)
        b = sampled_stack_distances([arr.tolist()], window=512, period=3, seed=5)
        assert a.n_windows == b.n_windows
        assert a.censored_fraction == b.censored_fraction
        assert a.profile.distances.tolist() == b.profile.distances.tolist()

    def test_sampled_tail_window_ndarray(self):
        a = sampled_stack_distances([np.array([1, 2, 1])], window=10, period=3)
        assert a.n_windows == 1
