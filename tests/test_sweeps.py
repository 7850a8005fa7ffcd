"""Sweep grids (appendix A.2), the per-process sweep memo and summary
statistics (Tables 4/5)."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.engine.calibration import DEFAULT_KNOBS
from repro.experiments import run, sweeps
from repro.experiments.sweeps import (
    collection_for,
    dense_orders,
    dense_tiles,
    fft_sizes,
    geomean,
    representative_kernels,
    run_sweep,
    stencil_grids,
    speedups,
    stream_sizes,
    summarize,
    sweep,
    sweep_configs,
)
from repro.kernels import StreamKernel
from repro.telemetry import names as tm


class TestGrids:
    def test_dense_orders_match_appendix(self):
        full = dense_orders("broadwell", quick=False)
        assert full[0] == 256 and full[-1] <= 16128
        assert full[1] - full[0] == 512
        knl_full = dense_orders("knl", quick=False)
        assert knl_full[-1] <= 32000
        assert knl_full[1] - knl_full[0] == 1024

    def test_dense_tiles_match_appendix(self):
        tiles = dense_tiles(quick=False)
        assert tiles[0] == 128 and tiles[-1] == 4096
        assert tiles[1] - tiles[0] == 128

    def test_quick_subsamples(self):
        assert len(dense_orders("broadwell", quick=True)) < len(
            dense_orders("broadwell", quick=False)
        )

    def test_stream_sizes_span(self):
        sizes = stream_sizes("broadwell", quick=False)
        assert sizes[0] == 2**4 and sizes[-1] == 2**24
        assert stream_sizes("knl", quick=False)[-1] == 2**26

    def test_stencil_grids_grow(self):
        grids = stencil_grids("knl", quick=False)
        cells = [g[0] * g[1] * g[2] for g in grids]
        assert cells == sorted(cells)
        assert grids[0] == (128, 64, 64)

    def test_fft_sizes_match_appendix(self):
        brd = fft_sizes("broadwell", quick=False)
        assert brd[0] == 96 and brd[-1] == 592 and brd[1] - brd[0] == 16
        knl_sizes = fft_sizes("knl", quick=False)
        assert knl_sizes[-1] == 1088 and knl_sizes[1] - knl_sizes[0] == 32

    def test_collection_quick_is_subset_of_full(self):
        quick = collection_for(quick=True)
        assert 50 <= len(quick) <= 200
        full_names = {d.name for d in collection_for(quick=False)}
        assert all(d.name in full_names for d in quick)

    def test_collection_built_once_per_process(self):
        full = collection_for(quick=False)
        assert isinstance(full, tuple)
        assert collection_for(quick=False) is full
        assert collection_for(quick=True) is collection_for(quick=True)
        assert collection_for(quick=True) == full[::10]


class TestSweepRunners:
    def test_broadwell_sweep_modes(self):
        gflops = run_sweep([StreamKernel(n=1000)], "broadwell")
        assert set(gflops) == {"w/ eDRAM", "w/o eDRAM"}

    def test_knl_sweep_modes(self):
        gflops = run_sweep([StreamKernel(n=1000)], "knl")
        assert set(gflops) == {"DDR", "Flat", "Cache", "Hybrid"}

    def test_sweep_point_gflops(self):
        gflops = run_sweep([StreamKernel(n=1000)], "broadwell")
        assert gflops["w/ eDRAM"][0] > 0


class TestSweepMemo:
    """``sweep`` evaluates each (platform, kernel, scale, knobs) sweep once."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        sweep.cache_clear()
        yield
        sweep.cache_clear()

    def test_second_call_is_served_from_the_memo(self, monkeypatch):
        calls = []
        evaluate = sweeps.estimate

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(sweeps, "estimate", counted)
        first = sweep("broadwell", "Stream", quick=True)
        n_configs = len(sweep_configs("broadwell", "Stream", quick=True))
        assert len(calls) == 2 * n_configs
        assert sweep("broadwell", "Stream", quick=True) is first
        assert len(calls) == 2 * n_configs

    def test_mapping_and_arrays_are_read_only(self):
        gflops = sweep("broadwell", "Stream", quick=True)
        with pytest.raises(TypeError):
            gflops["w/ eDRAM"] = np.zeros(1)  # type: ignore[index]
        with pytest.raises(ValueError, match="read-only"):
            gflops["w/ eDRAM"][0] = 0.0

    def test_knobs_are_part_of_the_key(self):
        plain = sweep("broadwell", "Stream", quick=True)
        jittered = sweep(
            "broadwell", "Stream", quick=True, knobs=DEFAULT_KNOBS.replace(noise_sigma=0.06)
        )
        assert jittered is not plain
        assert not np.array_equal(plain["w/ eDRAM"], jittered["w/ eDRAM"])
        assert sweep("broadwell", "Stream", quick=True) is plain

    @pytest.mark.parametrize(
        "first,second", [("table5", "fig15"), ("fig17", "fig20"), ("fig17", "table5")]
    )
    def test_results_do_not_depend_on_run_order(self, first, second):
        def documents(order):
            sweep.cache_clear()
            return {
                exp_id: json.dumps(run(exp_id, quick=True).as_dict(), sort_keys=True)
                for exp_id in order
            }

        assert documents((first, second)) == documents((second, first))

    @pytest.mark.parametrize("first,second", [("table5", "fig15"), ("fig17", "fig20")])
    def test_memo_hits_note_the_sweep_machines_on_the_manifest(self, first, second):
        """``second`` reads ``first``'s memo entry, and its manifest still
        lists the machines a solo run of ``second`` builds."""

        def spec_hashes(order):
            sweep.cache_clear()
            with telemetry.session():
                for exp_id in order:
                    m = telemetry.start_manifest(exp_id, quick=True)
                    run(exp_id, quick=True)
                    telemetry.finish_manifest(m)
            return m.platform_spec_hashes

        solo = spec_hashes((second,))
        assert solo
        assert spec_hashes((first, second)) == solo

    def test_memo_hits_are_counted_as_reused_points(self):
        def counts():
            registry = telemetry.get_registry()
            return tuple(
                registry.counter(name).value
                for name in (tm.METRIC_SWEEP_POINTS, tm.METRIC_SWEEP_REUSED)
            )

        with telemetry.session():
            before = counts()
            run("fig17", quick=True)
            after_fig17 = counts()
            run("fig20", quick=True)
            after_fig20 = counts()
        assert (after_fig17[0] - before[0], after_fig17[1] - before[1]) == (97, 0)
        assert (after_fig20[0] - after_fig17[0], after_fig20[1] - after_fig17[1]) == (0, 97)


class TestSummarize:
    def test_statistics(self):
        gflops = run_sweep(
            [StreamKernel(n=2**k) for k in (12, 18, 21, 22)], "broadwell"
        )
        s = summarize(gflops, base="w/o eDRAM", opm="w/ eDRAM")
        assert s.best_opm >= s.best_base
        assert s.max_gap >= s.avg_gap
        assert s.max_speedup >= s.avg_speedup >= 1.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            summarize([], base="a", opm="b")

    def test_zero_baseline_rejected(self):
        gflops = {"base": np.array([1.0, 0.0]), "opm": np.array([2.0, 2.0])}
        with pytest.raises(ValueError, match=r"base\[1\] = 0\.0"):
            summarize(gflops, base="base", opm="opm")


class TestSpeedups:
    def test_elementwise_ratio(self):
        np.testing.assert_array_equal(speedups([2.0, 3.0], [1.0, 2.0]), [2.0, 1.5])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_non_positive_baseline_raises(self, bad):
        with pytest.raises(ValueError, match=r"speedups: base\[2\] = "):
            speedups([1.0, 1.0, 1.0], [0.5, 1.0, bad])

    def test_geomean_names_a_nan(self):
        with pytest.raises(ValueError, match=r"geomean: values\[1\] = nan"):
            geomean([1.0, float("nan")])


class TestRepresentativeKernels:
    @pytest.mark.parametrize("platform", ["broadwell", "knl"])
    def test_eight_kernels(self, platform):
        reps = representative_kernels(platform)
        assert len(reps) == 8
        for factory in reps.values():
            profile = factory().profile()
            assert profile.flops > 0
