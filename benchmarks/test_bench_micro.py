"""Microbenchmarks for the substrates themselves.

These track the cost of the pieces the experiment drivers are built from:
the exact cache simulator, stack-distance computation, CSR5 encode/SpMV,
level scheduling, the synthetic collection builder, and the functional
kernels at test scale.
"""

import statistics
import time

import numpy as np
import pytest

from repro.engine import DEFAULT_KNOBS, estimate
from repro.engine.exectime import _noise_factor
from repro.experiments.ext04_prefetch import _workloads as ext4_workloads
from repro.experiments.sweeps import SWEEP_KERNELS, collection_for, sweep_configs
from repro.kernels import SpmvKernel, fft_3d, iso3dfd_step, tiled_cholesky, tiled_gemm
from repro.kernels.traces import kernel_trace_chunks
from repro.memory import SetAssociativeCache, for_broadwell
from repro.platforms import broadwell, knl
from repro.platforms.tuning import ALL_MCDRAM_MODES
from repro.sparse import (
    FAMILIES,
    build_collection,
    build_levels,
    encode,
    generators,
    simulate_schedule,
    spmv_csr5,
)
from repro.trace import CHUNK, stack_distances
from tests import engine_oracle, schedule_oracle


def test_bench_cache_simulator(benchmark):
    def run():
        c = SetAssociativeCache(capacity=1 << 16, line=64, ways=8)
        hits = 0
        # 900 lines fit the 1024-line cache: repeats hit after the first
        # sweep (a cyclic working set larger than capacity would LRU-thrash
        # to a 0% hit rate — see TestLruBehavior in tests/test_cache.py).
        for rep in range(8):
            for line in range(900):
                hits += c.access(line)[0]
        return hits

    hits = benchmark(run)
    assert hits > 0


def test_bench_stack_distance(benchmark):
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 4096, size=20_000).tolist()
    profile = benchmark(stack_distances, trace)
    assert profile.n_references == 20_000


def test_bench_stack_distance_ndarray(benchmark):
    # Same trace as the list path above, fed as an ndarray: exercises
    # the vectorized previous-occurrence pass + preloaded Fenwick tree.
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 4096, size=20_000)
    profile = benchmark(stack_distances, trace)
    assert profile.n_references == 20_000


def _triad_trace(n_words, reps):
    """STREAM-triad reference stream: a[i] = b[i] + s*c[i], word grain."""
    base_a, base_b, base_c = 0, 1 << 24, 1 << 25
    i = np.arange(n_words, dtype=np.int64) * 8
    addrs = np.empty(3 * n_words, dtype=np.int64)
    addrs[0::3] = (base_b + i) // 64
    addrs[1::3] = (base_c + i) // 64
    addrs[2::3] = (base_a + i) // 64
    writes = np.zeros(3 * n_words, dtype=bool)
    writes[2::3] = True
    return np.tile(addrs, reps), np.tile(writes, reps)


def _replay_scalar(h, addrs, writes):
    access = h.access
    for a, w in zip(addrs, writes):
        access(a, write=w)


def _replay_batched(h, addrs, writes):
    for i in range(0, len(addrs), CHUNK):
        h.run_array(addrs[i : i + CHUNK], writes[i : i + CHUNK])


def test_bench_hierarchy_scalar(benchmark):
    # Hierarchy construction happens in the (untimed) setup so the
    # timings — and the CI bench-compare ratio derived from them —
    # measure only the replay loops.
    addrs, writes = _triad_trace(1000, 50)
    alist, wlist = addrs.tolist(), writes.tolist()
    benchmark.pedantic(
        _replay_scalar,
        setup=lambda: ((for_broadwell(broadwell()), alist, wlist), {}),
        rounds=5,
    )


def test_bench_hierarchy_batched(benchmark):
    addrs, writes = _triad_trace(1000, 50)
    benchmark.pedantic(
        _replay_batched,
        setup=lambda: ((for_broadwell(broadwell()), addrs, writes), {}),
        rounds=5,
    )


def _best_of(fn, *args, prefetch=None):
    """Min of 3 replays, each on a fresh full-size Broadwell hierarchy."""
    best = float("inf")
    for _ in range(3):
        h = for_broadwell(broadwell(), prefetch=prefetch)
        t0 = time.perf_counter()
        fn(h, *args)
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_speedup(slow, fast, pairs=5):
    """Median of ``slow() / fast()`` over ``pairs`` back-to-back pairs.

    Each callable returns the seconds it timed. The host switches between
    speed states every few seconds; a pair timed back to back mostly sees
    one state, while a min over passes taken seconds apart compares
    different ones.
    """
    ratios = []
    for _ in range(pairs):
        slow_s = slow()
        fast_s = fast()
        ratios.append(slow_s / fast_s)
    print("per-pair ratios " + " ".join(f"{r:.2f}" for r in ratios))
    return statistics.median(ratios)


def test_bench_batched_speedup_at_least_10x():
    """Acceptance gate: the batched fast path is >= 10x the scalar oracle.

    Raised from 3x after the set-bucketed vectorized rewrite of the
    hierarchy chain (measured ~13-17x on this trace). Measured directly
    (min of 3) rather than via the benchmark fixture so the ratio
    compares the same machine state back to back.
    """
    addrs, writes = _triad_trace(1000, 150)
    alist, wlist = addrs.tolist(), writes.tolist()
    scalar = _best_of(_replay_scalar, alist, wlist)
    batched = _best_of(_replay_batched, addrs, writes)
    speedup = scalar / batched
    print(f"scalar {scalar:.3f}s batched {batched:.3f}s speedup {speedup:.2f}x")
    assert speedup >= 10.0


@pytest.mark.parametrize("prefetch", ["next-line", "stride"])
def test_bench_prefetch_speedup_at_least_2_5x(prefetch):
    """Acceptance gate: prefetching hierarchies replay on the level passes.

    Measured like the 10x gate above. A per-reference observe-and-walk
    replay runs at about the scalar oracle's speed (1.2x next-line, 0.9x
    stride); merging each reference's observation into the LLC pass
    measured ~4x on this trace. Falling back to a per-reference walk
    fails the gate.
    """
    addrs, writes = _triad_trace(1000, 150)
    alist, wlist = addrs.tolist(), writes.tolist()
    scalar = _best_of(_replay_scalar, alist, wlist, prefetch=prefetch)
    batched = _best_of(_replay_batched, addrs, writes, prefetch=prefetch)
    speedup = scalar / batched
    print(f"{prefetch}: scalar {scalar:.3f}s batched {batched:.3f}s speedup {speedup:.2f}x")
    assert speedup >= 2.5


def test_bench_shared_prefix_speedup_at_least_1_4x():
    """Acceptance gate: a replay group runs the levels above the LLC once.

    ext4's quick GEMM workload through its three prefetcher
    configurations, as ext4 replays it: one ``run_batched(..., also=...)``
    of one trace against three solo replays, each of its own trace.
    Hierarchies are built outside the timed region; the gate is the
    median ratio of 5 back-to-back (solo, group) pairs. The group
    measured ~2x here (the three LLC passes stay); replaying the shared
    levels per member fails the gate.
    """
    kernel = ext4_workloads(quick=True)["gemm"]

    def fresh():
        return [
            for_broadwell(broadwell(), scale=0.001, prefetch=k)
            for k in ("next-line", None, "stride")
        ]

    def solo():
        hs = fresh()
        t0 = time.perf_counter()
        for h in hs:
            h.run_batched(kernel_trace_chunks(kernel, reps=2))
        return time.perf_counter() - t0

    def group():
        hs = fresh()
        t0 = time.perf_counter()
        hs[0].run_batched(kernel_trace_chunks(kernel, reps=2), also=hs[1:])
        return time.perf_counter() - t0

    speedup = _paired_speedup(solo, group)
    print(f"three solo vs group: median speedup {speedup:.2f}x")
    assert speedup >= 1.4


def test_bench_repeated_trace_speedup_at_least_1_1x():
    """Acceptance gate: a repeated trace stops replaying the levels above
    the LLC once they repeat.

    ext4's quick GEMM group, as ext4 replays it: one repetition of chunks
    with ``reps=2``, against streaming both repetitions through the same
    group. Hierarchies are built outside the timed region; min of 3,
    alternating. L1 and L2 repeat from the second sub-block of the second
    repetition, so only its LLC passes remain; replaying it in full again
    fails the gate.
    """
    kernel = ext4_workloads(quick=True)["gemm"]

    def fresh():
        return [
            for_broadwell(broadwell(), scale=0.001, prefetch=k)
            for k in ("next-line", None, "stride")
        ]

    streamed = repeated = float("inf")
    for _ in range(3):
        hs = fresh()
        t0 = time.perf_counter()
        hs[0].run_batched(kernel_trace_chunks(kernel, reps=2), also=hs[1:])
        streamed = min(streamed, time.perf_counter() - t0)
        hs = fresh()
        t0 = time.perf_counter()
        hs[0].run_batched(kernel_trace_chunks(kernel), also=hs[1:], reps=2)
        repeated = min(repeated, time.perf_counter() - t0)
    speedup = streamed / repeated
    print(f"streamed {streamed:.3f}s repeated {repeated:.3f}s speedup {speedup:.2f}x")
    assert speedup >= 1.1


def _schedule_pass(fn, lowers):
    t0 = time.perf_counter()
    for lower in lowers:
        for cores in (4, 64):
            for discipline in ("level", "sync-free"):
                fn(lower, cores=cores, discipline=discipline)
    return time.perf_counter() - t0


def test_bench_schedule_speedup_at_least_2x():
    """Acceptance gate: ``simulate_schedule`` walks the rows as lists.

    ext5's quick matrices (8 families x {4, 64} cores x both
    disciplines) against the per-row NumPy oracle
    (``tests/schedule_oracle.py``); min of 3 passes each, alternating.
    The list scheduler measured ~4x; slicing the CSR arrays once per row
    again fails the gate.
    """
    lowers = [
        generators.generate(family, 800, 8000, seed=7).lower_triangle()
        for family in FAMILIES
    ]
    oracle = fast = float("inf")
    for _ in range(3):
        oracle = min(oracle, _schedule_pass(schedule_oracle.simulate_schedule, lowers))
        fast = min(fast, _schedule_pass(simulate_schedule, lowers))
    speedup = oracle / fast
    print(f"oracle {oracle:.3f}s list {fast:.3f}s speedup {speedup:.2f}x")
    assert speedup >= 2.0


def _engine_calls():
    """The quick Table 5 KNL grid plus the quick-collection SpMV profiles at
    the sparse figures' noise, each under all four MCDRAM modes."""
    noisy = DEFAULT_KNOBS.replace(noise_sigma=0.06)
    profiles = [
        (k.profile(), DEFAULT_KNOBS)
        for name in SWEEP_KERNELS
        for k in sweep_configs("knl", name, quick=True)
    ]
    profiles += [(SpmvKernel(descriptor=d).profile(), noisy) for d in collection_for(quick=True)]
    machine = knl()
    return [
        (profile, machine, {"mcdram": mode, "knobs": knobs})
        for profile, knobs in profiles
        for mode in ALL_MCDRAM_MODES
    ]


def _engine_pass(fn, calls):
    _noise_factor.cache_clear()
    t0 = time.perf_counter()
    for profile, machine, kwargs in calls:
        fn(profile, machine, **kwargs)
    return time.perf_counter() - t0


def test_bench_engine_speedup_at_least_1_2x():
    """Acceptance gate: ``estimate`` is one pass over a per-call stage table.

    The per-phase oracle (``tests/engine_oracle.py``) rebuilds every
    stage's straddle-adjusted constants in every phase and builds a fresh
    noise generator per noisy call; the one-pass engine measured
    1.28-1.50x on this grid. The gate is the median ratio of 5
    back-to-back (oracle, one-pass) pairs, with the noise memo cleared
    before every pass. Sliding back to per-phase object churn fails the
    gate.
    """
    calls = _engine_calls()
    assert len(calls) == 1952
    speedup = _paired_speedup(
        lambda: _engine_pass(engine_oracle.estimate, calls),
        lambda: _engine_pass(estimate, calls),
    )
    print(f"oracle vs one-pass: median speedup {speedup:.2f}x")
    assert speedup >= 1.2


def test_bench_csr5_encode(benchmark):
    m = generators.random_uniform(2000, 60_000, seed=1)
    c5 = benchmark(encode, m)
    assert c5.nnz == m.nnz


def test_bench_csr5_spmv(benchmark):
    m = generators.random_uniform(2000, 60_000, seed=2)
    c5 = encode(m)
    x = np.random.default_rng(0).random(2000)
    y = benchmark(spmv_csr5, c5, x)
    np.testing.assert_allclose(y, m.to_scipy() @ x, atol=1e-9)


def test_bench_level_schedule(benchmark):
    lower = generators.random_uniform(5000, 80_000, seed=3).lower_triangle()
    sched = benchmark(build_levels, lower)
    assert sched.n_rows == 5000


def test_bench_collection_builder(benchmark):
    coll = benchmark(build_collection, 968)
    assert len(coll) == 968


def test_bench_tiled_gemm(benchmark):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    out = benchmark(tiled_gemm, a, b, tile=64)
    assert out.shape == (256, 256)


def test_bench_tiled_cholesky(benchmark):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((192, 192))
    a = m @ m.T + 192 * np.eye(192)
    l = benchmark(tiled_cholesky, a, tile=48)
    assert np.allclose(np.triu(l, 1), 0)


def test_bench_fft_3d(benchmark):
    rng = np.random.default_rng(6)
    cube = rng.standard_normal((24, 24, 24)) + 0j
    out = benchmark(fft_3d, cube)
    assert out.shape == cube.shape


def test_bench_stencil_step(benchmark):
    rng = np.random.default_rng(7)
    shape = (48, 48, 48)
    prev = rng.standard_normal(shape)
    curr = rng.standard_normal(shape)
    vel = rng.random(shape) * 0.1
    out = benchmark(iso3dfd_step, prev, curr, vel)
    assert out.shape == shape
