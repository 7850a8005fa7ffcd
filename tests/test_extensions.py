"""Extension scope: Skylake platform, OS-level OPM management, artifact
runners, validation harness, and the ext1-ext3 experiments."""

import numpy as np
import pytest

from repro.engine import estimate
from repro.experiments import run as run_experiment
from repro.kernels import GemmKernel, SpmvKernel, StreamKernel
from repro.platforms import McdramMode, broadwell, knl, skylake
from repro.sparse import from_params


class TestSkylake:
    def test_spec_shape(self):
        m = skylake()
        assert m.arch == "Skylake"
        assert m.opm is not None
        assert m.opm.kind == "memory-side"
        # Section 2.1: Skylake's eDRAM is a memory-side buffer at
        # DDR-class latency, unlike Broadwell's CPU-side victim cache.
        assert m.opm.latency == pytest.approx(m.dram.latency, rel=0.1)
        assert broadwell().opm.latency < broadwell().dram.latency

    def test_memory_side_edram_not_direct_map_derated(self):
        """Skylake's set-associative buffer keeps full capacity; only
        MCDRAM's direct-mapped cache mode is derated."""
        from tests.engine_oracle import build_stack

        sky_stack = build_stack(skylake(), 1e9, mcdram=McdramMode.CACHE)
        sky_stage = next(
            s for s in sky_stack.stages if s.name.startswith("eDRAM-ms")
        )
        assert not sky_stage.direct_mapped
        assert sky_stage.capacity == pytest.approx(64 * 2**20)
        knl_stack = build_stack(knl(), 1e9, mcdram=McdramMode.CACHE)
        knl_stage = next(
            s for s in knl_stack.stages if s.name.startswith("MCDRAM")
        )
        assert knl_stage.direct_mapped

    def test_no_edram_variant(self):
        assert skylake(edram=False).opm is None

    def test_stream_benefits_from_memory_side_edram(self):
        m = skylake()
        n = (40 << 20) // 24  # 40 MB: inside the 64 MB buffer
        p = StreamKernel(n=n).profile()
        on = estimate(p, m, mcdram=McdramMode.CACHE).gflops
        off = estimate(p, m, mcdram=McdramMode.OFF).gflops
        assert on > 1.5 * off


class TestPartitionPolicies:
    def _profiles(self):
        return [
            SpmvKernel(
                descriptor=from_params("a", "grid3d", 20_000_000, 300_000_000, seed=1)
            ).profile(),
            SpmvKernel(
                descriptor=from_params("b", "random", 40_000_000, 900_000_000, seed=2)
            ).profile(),
            GemmKernel(order=8192, tile=512).profile(),
        ]

    def test_equal_share_sums_to_capacity(self):
        from repro.os import EqualShare

        machine = knl()
        part = EqualShare().partition(
            self._profiles(), machine.opm.capacity, machine
        )
        assert part.total == machine.opm.capacity
        assert max(part.slices) - min(part.slices) <= 1

    def test_proportional_share_tracks_footprints(self):
        from repro.os import ProportionalShare

        machine = knl()
        profiles = self._profiles()
        part = ProportionalShare().partition(
            profiles, machine.opm.capacity, machine
        )
        assert part.total == machine.opm.capacity
        fps = [p.footprint_bytes for p in profiles]
        order = np.argsort(fps)
        slices = np.array(part.slices)
        assert (np.diff(slices[order]) >= 0).all()

    def test_utility_max_prefers_capacity_sensitive_tenants(self):
        from repro.os import UtilityMaxShare

        machine = knl()
        profiles = self._profiles()
        part = UtilityMaxShare(grain=2 << 30).partition(
            profiles, machine.opm.capacity, machine
        )
        # The compute-bound GEMM has ~zero marginal utility.
        assert part.slices[2] <= part.slices[0]
        assert part.slices[2] <= part.slices[1]

    def test_free_for_all_derates(self):
        from repro.os import FreeForAll, ProportionalShare

        machine = knl()
        profiles = self._profiles()
        ffa = FreeForAll().partition(profiles, machine.opm.capacity, machine)
        prop = ProportionalShare().partition(
            profiles, machine.opm.capacity, machine
        )
        assert all(f <= p for f, p in zip(ffa.slices, prop.slices))

    def test_partition_validation(self):
        from repro.os import Partition

        with pytest.raises(ValueError):
            Partition(policy="x", slices=(-1,))


class TestCorunSimulation:
    def test_corun_metrics(self):
        from repro.os import EqualShare, simulate_corun

        machine = knl()
        tenants = [
            (
                "a",
                SpmvKernel(
                    descriptor=from_params(
                        "a", "grid3d", 20_000_000, 300_000_000, seed=1
                    )
                ).profile(),
            ),
            ("b", StreamKernel(n=(4 << 30) // 24).profile()),
        ]
        result = simulate_corun(tenants, machine, EqualShare())
        assert len(result.tenants) == 2
        assert 0.0 < result.jain_fairness <= 1.0
        # Sharing bandwidth cannot beat running solo.
        assert all(t.speedup_vs_solo <= 1.0 + 1e-9 for t in result.tenants)
        assert result.min_speedup <= result.weighted_speedup

    def test_requires_opm_machine(self):
        from repro.os import EqualShare, simulate_corun

        with pytest.raises(ValueError):
            simulate_corun([], broadwell(edram=False), EqualShare())

    def test_throughput_with_slice_monotone(self):
        from repro.os import throughput_with_slice

        machine = knl()
        profile = SpmvKernel(
            descriptor=from_params("m", "random", 40_000_000, 900_000_000, seed=3)
        ).profile()
        gib = 1 << 30
        vals = [
            throughput_with_slice(profile, machine, s * gib)
            for s in (0, 4, 8, 16)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


class TestPagetable:
    def test_walk_cost_ordering(self):
        from repro.os import WalkModel

        bdw = WalkModel(broadwell())
        assert (
            bdw.walk_cost_ns("cached")
            < bdw.walk_cost_ns("opm")
            < bdw.walk_cost_ns("dram")
        )
        # On KNL the OPM walk is the slowest (MCDRAM latency > DDR).
        k = WalkModel(knl())
        assert k.walk_cost_ns("opm") > k.walk_cost_ns("dram")

    def test_unknown_placement(self):
        from repro.os import WalkModel

        with pytest.raises(ValueError):
            WalkModel(broadwell()).walk_cost_ns("l5")

    def test_overhead_scales_with_miss_rate(self):
        from repro.os import WalkModel

        model = WalkModel(broadwell())
        lo = model.walk_overhead_seconds(1e9, 0.001, "dram")
        hi = model.walk_overhead_seconds(1e9, 0.01, "dram")
        assert hi == pytest.approx(10 * lo)

    def test_miss_rate_validation(self):
        from repro.os import WalkModel

        with pytest.raises(ValueError):
            WalkModel(broadwell()).walk_overhead_seconds(1e9, 1.5, "dram")

    def test_study_benefit_signs(self):
        from repro.os import study

        profile = SpmvKernel(
            descriptor=from_params("m", "random", 8_000_000, 160_000_000, seed=3)
        ).profile()
        bdw = broadwell()
        res = estimate(profile, bdw, edram=True)
        s = study(res, bdw, tlb_miss_per_access=0.05, demand_bytes=profile.demand_bytes)
        assert s.opm_benefit() > 1.0  # eDRAM latency < DRAM
        k = knl()
        res_k = estimate(profile, k, mcdram=McdramMode.CACHE)
        s_k = study(res_k, k, tlb_miss_per_access=0.05, demand_bytes=profile.demand_bytes)
        assert s_k.opm_benefit() < 1.0  # MCDRAM latency > DDR


class TestArtifactRunners:
    def test_dgemm_record(self):
        from repro.artifact import run_dgemm

        rec = run_dgemm(m=2048, n=2048, k=2048, nb=256, platform="broadwell", mode="on")
        assert rec.gflops > 0
        out = rec.render()
        assert "elapsed execution time" in out
        assert "GFLOPs throughput" in out

    def test_dgemm_rejects_nonsquare(self):
        from repro.artifact import run_dgemm

        with pytest.raises(ValueError):
            run_dgemm(m=2048, n=1024, k=2048, nb=256, platform="broadwell", mode="on")

    def test_mode_vocabulary_enforced(self):
        from repro.artifact import run_stream

        with pytest.raises(ValueError):
            run_stream(arraysz=1000, platform="broadwell", mode="flat")
        with pytest.raises(ValueError):
            run_stream(arraysz=1000, platform="knl", mode="maybe")
        with pytest.raises(ValueError):
            run_stream(arraysz=1000, platform="power9", mode="on")
        with pytest.raises(ValueError, match="unknown platform 'skylake'"):
            run_stream(arraysz=1000, platform="skylake", mode="on")

    def test_sparse_runners_from_descriptor(self):
        from repro.artifact import run_spmv, run_sptranspose, run_trsv

        d = from_params("x", "banded", 1_000_000, 20_000_000, seed=1)
        for runner in (run_spmv, run_sptranspose, run_trsv):
            rec = runner(d, platform="knl", mode="cache")
            assert rec.gflops > 0
            assert "nnz=20000000" in rec.dataset_stats

    def test_spmv_from_mtx_file(self, tmp_path):
        from repro.artifact import run_spmv
        from repro.sparse import generators, write_mm

        m = generators.banded(500, 5000, seed=2)
        path = tmp_path / "m.mtx"
        write_mm(m, path)
        rec = run_spmv(path, platform="broadwell", mode="on")
        assert rec.arguments == str(path)

    def test_write_raw_data_layout(self, tmp_path):
        from repro.artifact import run_stream, write_raw_data

        records = [
            run_stream(arraysz=2**k, platform="broadwell", mode=m)
            for k in (12, 16)
            for m in ("off", "on")
        ]
        paths = write_raw_data(records, tmp_path)
        assert paths == [tmp_path / "broadwell" / "stream.csv"]
        text = paths[0].read_text()
        assert text.count("\n") == 5  # header + 4 rows

    def test_fft_and_stencil_runners(self):
        from repro.artifact import run_fft, run_stencil

        assert run_fft(size=96, platform="knl", mode="flat").gflops > 0
        assert (
            run_stencil(gridsz=(128, 64, 64), platform="knl", mode="hybrid").gflops
            > 0
        )

    def test_dpotrf_runner(self):
        from repro.artifact import run_dpotrf

        rec = run_dpotrf(
            m=2048, n=2048, k=2048, nb=256, platform="knl", mode="cache"
        )
        assert rec.kernel == "dpotrf"
        assert rec.gflops > 0
        assert "SPD matrix" in rec.dataset_stats


class TestValidationHarness:
    def test_zoo_accuracy(self):
        from repro.validation import validate_all

        cases = validate_all()
        assert len(cases) >= 6
        # Conflict-free patterns: near-exact agreement.
        by_name = {c.name: c for c in cases}
        assert by_name["sequential-stream"].max_abs_error < 0.01
        assert by_name["repeated-sweep-small"].max_abs_error < 0.01
        # Random/chase patterns: conflicts bound the error, still small.
        assert all(c.max_abs_error < 0.15 for c in cases)

    def test_report_renders(self):
        from repro.validation import report, validate_all

        text = report(validate_all())
        assert "worst-case" in text

    def test_cli_validate(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        assert "hit-rate validation" in capsys.readouterr().out

    def test_streamed_case_with_whole_trace_window_is_exact(self):
        """One window over the whole trace, every window sampled: the
        streamed case reads the exact curve and equals the batch case."""
        from repro.trace import chunk_arrays, expand_lines
        from repro.validation import (
            validate_case,
            validate_case_streamed,
            workload_zoo,
        )

        for name, factory in workload_zoo().items():
            workload = factory()
            lines, lw = expand_lines(workload[0], 8, workload[1])
            streamed = validate_case_streamed(
                name,
                chunk_arrays(lines, lw, 1 << 14),
                window=len(lines),
                period=1,
            )
            assert streamed == validate_case(name, workload), name

    def test_cli_validate_sampled(self, capsys):
        from repro.cli import main
        from repro.validation import workload_zoo

        assert main(["validate", "--sampled"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:-1]
        assert [row.split()[0] for row in rows] == [
            *workload_zoo(), "spmv", "sptrsv"
        ]


class TestExtensionExperiments:
    def test_ext1_placement(self):
        result = run_experiment("ext1", quick=True)
        t = result.table("placement")
        rows = {r[0]: r for r in t.rows}
        # SpMV prefers the CPU-side placement (latency edge).
        assert rows["SpMV"][5] > 1.1

    def test_ext2_policies(self):
        result = run_experiment("ext2", quick=True)
        t = result.table("policies")
        assert len(t.rows) == 4
        for row in t.rows:
            jain = row[3]
            assert 0.0 < jain <= 1.0

    def test_ext3_pagetable_split(self):
        result = run_experiment("ext3", quick=True)
        t = result.table("walks")
        bdw = [r for r in t.rows if r[0] == "Broadwell"]
        knl_rows = [r for r in t.rows if r[0] == "Knights Landing"]
        assert all(r[5] >= 1.0 for r in bdw)  # eDRAM helps walks
        assert all(r[5] <= 1.0 for r in knl_rows)  # MCDRAM does not
