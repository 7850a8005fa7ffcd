"""Execution-time model: shape invariants matching the paper's findings."""

import pytest

from repro.engine import DEFAULT_KNOBS, efficiency, estimate
from repro.kernels import (
    GemmKernel,
    SpmvKernel,
    SptrsvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.platforms import GIB, McdramMode, broadwell, knl
from repro.sparse import from_params
from tests.engine_oracle import build_stack


def stream_gflops(machine, n, **kw):
    return estimate(StreamKernel(n=n).profile(), machine, **kw).gflops


class TestBroadwellEdram:
    def test_edram_never_worse(self):
        """Paper Section 5.1: 'we have not observed worse performance
        using eDRAM than without eDRAM'."""
        machine = broadwell()
        for logn in range(10, 27):
            on = stream_gflops(machine, 2**logn, edram=True)
            off = stream_gflops(machine, 2**logn, edram=False)
            assert on >= off * 0.999, f"eDRAM hurt at n=2^{logn}"

    def test_edram_cache_peak_in_effective_region(self):
        """Between the L3 valley and 128 MB, eDRAM wins clearly."""
        machine = broadwell()
        n = (48 << 20) // 24  # 48 MB footprint
        on = stream_gflops(machine, n, edram=True)
        off = stream_gflops(machine, n, edram=False)
        assert on > 2.0 * off

    def test_curves_converge_past_edram(self):
        machine = broadwell()
        n = (1 << 30) // 24  # 1 GiB footprint >> eDRAM
        on = stream_gflops(machine, n, edram=True)
        off = stream_gflops(machine, n, edram=False)
        assert on == pytest.approx(off, rel=0.05)

    def test_l3_valley_without_edram(self):
        """Paper Figure 12: w/o eDRAM there is an L3 valley below the
        eventual DRAM plateau."""
        machine = broadwell()
        valley = stream_gflops(machine, (12 << 20) // 24, edram=False)
        plateau = stream_gflops(machine, (1 << 30) // 24, edram=False)
        assert valley < plateau

    def test_cache_peaks_descend(self):
        """Stepping model: peak heights decline down the hierarchy."""
        machine = broadwell()
        l1_peak = stream_gflops(machine, 500, edram=True)
        l2_peak = stream_gflops(machine, (512 << 10) // 24, edram=True)
        l3_peak = stream_gflops(machine, (4 << 20) // 24, edram=True)
        dram = stream_gflops(machine, (1 << 31) // 24, edram=True)
        assert l1_peak > l2_peak > l3_peak > dram

    def test_dense_gemm_compute_bound(self):
        machine = broadwell()
        r = estimate(GemmKernel(order=8192, tile=256).profile(), machine, edram=True)
        assert r.bound == "compute"
        # Near the paper's ~205 GFlop/s peak.
        assert 180 < r.gflops < 236.8

    def test_stencil_edram_wins_continuously(self):
        """Paper Section 4.1.3: the 24 MB blocked working set exceeds L3
        but fits eDRAM, so eDRAM wins for every large grid."""
        machine = broadwell()
        for side in (256, 512):
            p = StencilKernel(side, side, side, threads=8).profile()
            on = estimate(p, machine, edram=True).gflops
            off = estimate(p, machine, edram=False).gflops
            assert on > 1.5 * off


class TestKnlMcdram:
    def test_mcdram_bandwidth_ratio_on_stream(self):
        """Paper: MCDRAM gives roughly 5x the DDR bandwidth; the stream
        plateau ratio reflects it."""
        machine = knl()
        n = (4 * GIB) // 24
        flat = stream_gflops(machine, n, mcdram=McdramMode.FLAT)
        ddr = stream_gflops(machine, n, mcdram=McdramMode.OFF)
        assert 3.5 < flat / ddr < 6.0

    def test_flat_mode_cliff_past_capacity(self):
        """Paper Section 4.2.1-II: straddling collapses flat mode below
        even the DDR-only configuration."""
        machine = knl()
        n = (48 * GIB) // 24
        flat = stream_gflops(machine, n, mcdram=McdramMode.FLAT)
        ddr = stream_gflops(machine, n, mcdram=McdramMode.OFF)
        assert flat < ddr

    def test_hybrid_degrades_before_flat(self):
        """Hybrid's flat half is 8 GB: it steps down one point before
        flat mode does (paper Figure 23)."""
        machine = knl()
        n12 = (12 * GIB) // 24
        flat = stream_gflops(machine, n12, mcdram=McdramMode.FLAT)
        hybrid = stream_gflops(machine, n12, mcdram=McdramMode.HYBRID)
        ddr = stream_gflops(machine, n12, mcdram=McdramMode.OFF)
        assert flat > ddr
        assert hybrid > ddr  # still partially MCDRAM-served

    def test_hybrid25_between_hybrid_and_flat(self):
        """The 25/75 split keeps more flat capacity: at 12 GB (inside its
        12 GB flat half) it behaves like flat mode."""
        machine = knl()
        n12 = (12 * GIB) // 24 - 4096
        flat = stream_gflops(machine, n12, mcdram=McdramMode.FLAT)
        h25 = stream_gflops(machine, n12, mcdram=McdramMode.HYBRID25)
        h50 = stream_gflops(machine, n12, mcdram=McdramMode.HYBRID)
        assert h25 == pytest.approx(flat, rel=0.05)
        assert h25 >= h50 * 0.99

    def test_cache_mode_survives_past_capacity_with_locality(self):
        """Paper Figure 25 (FFT): past 16 GB flat drops while cache mode
        holds, because hardware caching tracks the hot set."""
        from repro.kernels import FftKernel

        machine = knl()
        p = FftKernel(size=1088).profile()  # ~57 GB footprint
        cache = estimate(p, machine, mcdram=McdramMode.CACHE).gflops
        flat = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        assert cache > flat

    def test_gemm_bad_tiles_rescued_by_mcdram(self):
        """Paper Figure 15: MCDRAM expands the near-peak region."""
        machine = knl()
        p = GemmKernel(order=16384, tile=4096).profile()
        cache = estimate(p, machine, mcdram=McdramMode.CACHE).gflops
        ddr = estimate(p, machine, mcdram=McdramMode.OFF).gflops
        assert cache > 1.2 * ddr

    def test_gemm_good_tiles_mode_insensitive(self):
        """Well-blocked GEMM is compute-bound in every mode."""
        machine = knl()
        p = GemmKernel(order=16384, tile=512).profile()
        vals = [
            estimate(p, machine, mcdram=m).gflops
            for m in (McdramMode.OFF, McdramMode.CACHE, McdramMode.HYBRID)
        ]
        assert max(vals) / min(vals) < 1.05

    def test_sptrsv_latency_bound_mcdram_loses(self):
        """Paper Section 4.2.2: SpTRSV's low MLP makes MCDRAM's higher
        latency a net loss against DDR at large footprints."""
        machine = knl()
        d = from_params("x", "banded", 20_000_000, 300_000_000, seed=1)
        p = SptrsvKernel(descriptor=d).profile()
        flat = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        ddr = estimate(p, machine, mcdram=McdramMode.OFF).gflops
        assert flat < ddr

    def test_spmv_same_matrix_gains(self):
        """...while SpMV (same bytes, high MLP) gains from MCDRAM."""
        machine = knl()
        d = from_params("x", "banded", 20_000_000, 300_000_000, seed=1)
        p = SpmvKernel(descriptor=d).profile()
        flat = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        ddr = estimate(p, machine, mcdram=McdramMode.OFF).gflops
        assert flat > 1.3 * ddr


class TestModelKnobs:
    def test_straddle_penalty_ablation(self):
        machine = knl()
        n = (48 * GIB) // 24
        p = StreamKernel(n=n).profile()
        with_penalty = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        no_penalty = estimate(
            p,
            machine,
            mcdram=McdramMode.FLAT,
            knobs=DEFAULT_KNOBS.replace(
                flat_straddle_bandwidth_factor=1.0,
                flat_straddle_latency_factor=1.0,
                flat_straddle_cache_factor=1.0,
            ),
        ).gflops
        assert with_penalty < no_penalty

    def test_direct_map_penalty_ablation(self):
        machine = knl()
        n = (14 * GIB) // 24  # inside 16 GB but outside 0.6 * 16 GB
        p = StreamKernel(n=n).profile()
        penalized = estimate(p, machine, mcdram=McdramMode.CACHE).gflops
        ideal = estimate(
            p,
            machine,
            mcdram=McdramMode.CACHE,
            knobs=DEFAULT_KNOBS.replace(direct_map_capacity_factor=1.0),
        ).gflops
        assert ideal > penalized

    def test_valley_ablation(self):
        machine = broadwell()
        n = (12 << 20) // 24
        p = StreamKernel(n=n).profile()
        valley = estimate(p, machine, edram=False).gflops
        smooth = estimate(
            p,
            machine,
            edram=False,
            knobs=DEFAULT_KNOBS.replace(valley_enabled=False),
        ).gflops
        assert smooth > valley

    def test_edram_victim_vs_inclusive(self):
        machine = broadwell()
        knobs_incl = DEFAULT_KNOBS.replace(edram_victim=False)
        stack_victim = build_stack(machine, 1e9, edram=True)
        stack_incl = build_stack(machine, 1e9, edram=True, knobs=knobs_incl)
        cap_v = next(s.capacity for s in stack_victim.stages if s.name == "eDRAM")
        cap_i = next(s.capacity for s in stack_incl.stages if s.name == "eDRAM")
        assert cap_v > cap_i

    def test_noise_is_deterministic_per_config(self):
        machine = broadwell()
        p = StreamKernel(n=100_000).profile()
        knobs = DEFAULT_KNOBS.replace(noise_sigma=0.1)
        a = estimate(p, machine, edram=True, knobs=knobs).gflops
        b = estimate(p, machine, edram=True, knobs=knobs).gflops
        assert a == b

    def test_noise_varies_with_seed(self):
        machine = broadwell()
        p = StreamKernel(n=100_000).profile()
        knobs = DEFAULT_KNOBS.replace(noise_sigma=0.1)
        a = estimate(p, machine, edram=True, knobs=knobs, noise_seed=1).gflops
        b = estimate(p, machine, edram=True, knobs=knobs, noise_seed=2).gflops
        assert a != b


class TestRunResult:
    def test_traffic_split(self):
        machine = broadwell()
        # eDRAM-resident footprint: OPM serves traffic, DRAM nearly idle.
        r = estimate(
            StreamKernel(n=(48 << 20) // 24).profile(), machine, edram=True
        )
        assert r.opm_bytes > 0
        assert r.dram_bytes < r.opm_bytes

    def test_bound_labels(self):
        machine = broadwell()
        r_stream = estimate(
            StreamKernel(n=(1 << 30) // 24).profile(), machine, edram=True
        )
        assert r_stream.bound.startswith("bandwidth")
        r_gemm = estimate(
            GemmKernel(order=8192, tile=256).profile(), machine, edram=True
        )
        assert r_gemm.bound == "compute"

    def test_dominant_phase(self):
        machine = knl()
        d = from_params("x", "banded", 1_000_000, 20_000_000, seed=2)
        r = estimate(SptrsvKernel(descriptor=d).profile(), machine, mcdram=McdramMode.OFF)
        assert r.dominant_phase().seconds == max(p.seconds for p in r.phases)

    def test_efficiency_lookup(self):
        assert efficiency("gemm", "Broadwell") < 1.0
        assert efficiency("unknown", "Broadwell") == 1.0
