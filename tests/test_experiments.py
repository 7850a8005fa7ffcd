"""Experiment registry, results containers, and per-figure assertions.

Beyond "it runs", these tests pin the qualitative claims each paper
artifact makes (who wins, where crossovers fall).
"""

import numpy as np
import pytest

from repro.experiments import DataTable, ExperimentResult, all_experiments, get, run
from repro.experiments.registry import _sort_key
from repro.experiments.sparse_exp import structure_bins
from repro.experiments.sweeps import SWEEP_KERNELS, run_sweep, speedups, sweep_configs

ALL_IDS = [
    *(f"fig{i}" for i in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                          17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30)),
    "table2",
    "table3",
    "table4",
    "table5",
    "eq1",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "ext6",
    "ext7",
    "ext8",
]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert sorted(all_experiments()) == sorted(ALL_IDS)

    def test_sort_order_figures_then_tables(self):
        ids = list(all_experiments())
        assert ids[0] == "fig1"
        assert ids[-1] == "ext8"
        assert ids.index("fig30") < ids.index("table2")
        assert ids.index("eq1") < ids.index("ext1")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get("fig99")

    def test_sort_key(self):
        assert _sort_key("fig2") < _sort_key("fig10")
        assert _sort_key("fig30") < _sort_key("table2")

    def test_specs_have_paper_artifacts(self):
        for spec in all_experiments().values():
            assert spec.paper_artifact.startswith(
                ("Figure", "Table", "Equation", "Extension")
            )


class TestResults:
    def test_datatable_validates_row_width(self):
        with pytest.raises(ValueError):
            DataTable("t", ("a", "b"), [(1,)])

    def test_datatable_column(self):
        t = DataTable("t", ("a", "b"), [(1, 2), (3, 4)])
        assert t.column("b") == [2, 4]

    def test_datatable_render_elides(self):
        t = DataTable("t", ("a",), [(i,) for i in range(100)])
        out = t.render(max_rows=10)
        assert "rows elided" in out

    def test_experiment_result_table_lookup(self):
        r = ExperimentResult("x", "t")
        r.add_table("one", ("c",), [(1,)])
        assert r.table("one").rows == [(1,)]
        with pytest.raises(KeyError):
            r.table("none")

    def test_write_csvs(self, tmp_path):
        r = ExperimentResult("expX", "t")
        r.add_table("one", ("c",), [(1,)])
        paths = r.write_csvs(tmp_path)
        assert paths[0].read_text() == "c\n1\n"
        assert paths[0].parent.name == "expX"

    def test_render_includes_notes(self):
        r = ExperimentResult("x", "t", notes=["hello"])
        assert "hello" in r.render()


@pytest.fixture(scope="module")
def quick_results():
    """Run every experiment once (quick mode) and cache the results."""
    return {exp_id: run(exp_id, quick=True) for exp_id in all_experiments()}


class TestEveryExperimentRuns:
    def test_all_quick_runs_produce_tables(self, quick_results):
        for exp_id, result in quick_results.items():
            assert result.tables, f"{exp_id} produced no tables"
            assert result.experiment_id == exp_id

    def test_all_tables_csv_serializable(self, quick_results):
        for result in quick_results.values():
            for table in result.tables:
                assert table.to_csv().count("\n") == len(table.rows) + 1


class TestFigureClaims:
    def test_fig1_knl_distribution_shift(self, quick_results):
        stats = quick_results["fig1"].table("stats_knl")
        medians = dict(zip(stats.column("mode"), stats.column("median")))
        assert medians["MCDRAM cache"] >= medians["DDR only"]

    def test_fig4_spectrum_ordering(self, quick_results):
        t = quick_results["fig4"].table("spectrum")
        ai = t.column("arithmetic_intensity")
        assert ai == sorted(ai)
        kernels = t.column("kernel")
        assert kernels[0] == "stream" and kernels[-1] == "gemm"

    def test_fig5_opm_lifts_bandwidth_bound_kernels(self, quick_results):
        t = quick_results["fig5"].table("attainable_broadwell")
        idx = t.column("kernel").index("stream")
        ddr = t.column("DDR3")[idx]
        edram = t.column("eDRAM")[idx]
        assert edram > 2.5 * ddr

    def test_fig6_multilevel_peaks(self, quick_results):
        notes = " ".join(quick_results["fig6"].notes)
        assert "cache peaks" in notes

    def test_fig7_gemm_bdw_peak_near_paper(self, quick_results):
        t = quick_results["fig7"].table("gflops")
        peak = max(t.column("w/ eDRAM"))
        assert 180 <= peak <= 236.8  # paper: 204.5-206.1

    def test_fig12_stream_edram_never_worse(self, quick_results):
        t = quick_results["fig12"].table("curves")
        on = np.array(t.column("w/_eDRAM"))
        off = np.array(t.column("w/o_eDRAM"))
        assert (on >= off * 0.999).all()

    def test_fig15_mcdram_rescues_bad_tiles(self, quick_results):
        t = quick_results["fig15"].table("gflops")
        cache = np.array(t.column("Cache"))
        ddr = np.array(t.column("DDR"))
        assert (cache >= ddr * 0.999).all()
        assert (cache > 1.1 * ddr).any()

    def test_fig23_stream_knl_mode_structure(self, quick_results):
        t = quick_results["fig23"].table("curves")
        fps = np.array(t.column("footprint_mb"))
        flat = np.array(t.column("Flat"))
        ddr = np.array(t.column("DDR"))
        in_cap = (fps > 500) & (fps < 16_000)
        past = fps > 17_000
        assert (flat[in_cap] > 2.0 * ddr[in_cap]).all()
        assert (flat[past] < ddr[past]).all()  # straddling cliff

    def test_fig26_power_increase_modest(self, quick_results):
        t = quick_results["fig26"].table("power")
        increases = [r for r in t.column("total_increase")]
        # Average increase in the paper: ~8.6%; ours within [0, 30%].
        assert 0.0 <= np.mean(increases) <= 0.30

    def test_fig27_ddr_power_reduction_cases(self, quick_results):
        notes = " ".join(quick_results["fig27"].notes)
        assert "reduces DDR power" in notes

    def test_table4_edram_never_degrades(self, quick_results):
        t = quick_results["table4"].table("summary")
        for row in t.rows:
            kernel, best_off, best_on = row[0], row[1], row[2]
            assert best_on >= best_off * 0.999, kernel
            max_speedup = row[6]
            assert max_speedup >= 0.999

    def test_table4_sparse_kernels_gain(self, quick_results):
        t = quick_results["table4"].table("summary")
        rows = {r[0]: r for r in t.rows}
        # Paper: sparse/medium kernels gain 10-30% on average.
        assert rows["SpMV"][5] > 1.1
        assert rows["Stencil"][5] > 1.2

    def test_table5_sign_structure(self, quick_results):
        t = quick_results["table5"].table("summary")
        rows = {r[0]: r for r in t.rows}
        # SpMV/Stream/Stencil/FFT gain clearly in every MCDRAM mode.
        for kernel in ("SpMV", "Stream", "Stencil", "FFT"):
            avg_speedups = [float(x) for x in rows[kernel][5].split("/")]
            assert max(avg_speedups) > 1.2, kernel
        # SpTRSV's flat-mode average speedup is the weakest of the sparse
        # kernels (latency-bound inversion).
        sptrsv_flat = float(rows["SpTRSV"][5].split("/")[0])
        spmv_flat = float(rows["SpMV"][5].split("/")[0])
        assert sptrsv_flat < spmv_flat

    def test_eq1_breakeven_signs(self, quick_results):
        t = quick_results["eq1"].table("edram_breakeven")
        for row in t.rows:
            kernel, p, w, ratio, saves = row
            assert (ratio < 1.0) == (saves == "yes")
            assert ratio == pytest.approx((1 + w) / (1 + p), rel=1e-6)

    def test_fig30_capacity_extends_region(self, quick_results):
        notes = " ".join(quick_results["fig30"].notes)
        assert "cap x4" in notes

    def test_fig9_effective_region_notes(self, quick_results):
        notes = " ".join(quick_results["fig9"].notes)
        assert "avg speedup" in notes

    def test_fig20_structure_table_populated(self, quick_results):
        t = quick_results["fig20"].table("structure")
        assert len(t.rows) > 3
        counts = t.column("count")
        assert sum(counts) > 0

    def test_ext8_frontiers_non_degenerate(self, quick_results):
        t = quick_results["ext8"].table("frontiers")
        assert len(t.rows) == 8
        for kernel, _global, _platform, distinct in t.rows:
            assert distinct >= 2, f"{kernel}: degenerate Pareto frontier"

    def test_ext8_every_config_priced(self, quick_results):
        t = quick_results["ext8"].table("pareto")
        assert len(t.rows) == 8 * 6  # 8 kernels x 6 configurations
        assert all(e > 0 for e in t.column("energy_j"))
        assert all(s > 0 for s in t.column("seconds"))
        # Each kernel has at least one point on the global frontier.
        by_kernel = {}
        for row in t.rows:
            by_kernel.setdefault(row[0], []).append(row[8])
        assert all(sum(flags) >= 1 for flags in by_kernel.values())


def _column(table, label):
    """A mode column of a figure table (curve tables spell spaces as ``_``)."""
    return table.column(label if label in table.columns else label.replace(" ", "_"))


class TestSweepDerivations:
    """Relations the docs state between artifacts, checked exactly.

    The sparse rows of Tables 4-5 are left out on purpose: the tables are
    noise-free, while the sparse figures carry scatter jitter.
    """

    @pytest.mark.parametrize(
        "structure_id,sweep_id", [("fig20", "fig17"), ("fig21", "fig18"), ("fig22", "fig19")]
    )
    def test_structure_figure_bins_its_knl_sweep(self, quick_results, structure_id, sweep_id):
        sweep = quick_results[sweep_id].table("per_matrix")
        *_, cells = structure_bins(
            np.array(sweep.column("rows")),
            np.array(sweep.column("nnz")),
            speedups(sweep.column("Flat"), sweep.column("DDR")),
        )
        assert cells
        assert quick_results[structure_id].table("structure").rows == cells

    @pytest.mark.parametrize(
        "kernel,fig_id,table",
        [
            ("GEMM", "fig7", "gflops"),
            ("Cholesky", "fig8", "gflops"),
            ("Stream", "fig12", "curves"),
            ("Stencil", "fig13", "curves"),
            ("FFT", "fig14", "curves"),
        ],
    )
    def test_table4_best_is_the_figure_maximum(self, quick_results, kernel, fig_id, table):
        rows = {r[0]: r for r in quick_results["table4"].table("summary").rows}
        fig = quick_results[fig_id].table(table)
        assert rows[kernel][1] == max(_column(fig, "w/o eDRAM"))
        assert rows[kernel][2] == max(_column(fig, "w/ eDRAM"))

    @pytest.mark.parametrize(
        "kernel,fig_id,table",
        [
            ("GEMM", "fig15", "gflops"),
            ("Cholesky", "fig16", "gflops"),
            ("Stream", "fig23", "curves"),
            ("Stencil", "fig24", "curves"),
            ("FFT", "fig25", "curves"),
        ],
    )
    def test_table5_best_is_the_figure_maximum(self, quick_results, kernel, fig_id, table):
        rows = {r[0]: r for r in quick_results["table5"].table("summary").rows}
        fig = quick_results[fig_id].table(table)
        assert rows[kernel][1] == max(fig.column("DDR"))
        assert rows[kernel][2] == "/".join(
            f"{max(fig.column(mode)):.1f}" for mode in ("Flat", "Cache", "Hybrid")
        )

    def test_unknown_platform_or_kernel_names_the_choices(self):
        platforms = r"platform = 'skylake': sweeps cover broadwell, knl"
        with pytest.raises(ValueError, match=platforms):
            sweep_configs("skylake", "GEMM", quick=True)
        with pytest.raises(ValueError, match=platforms):
            run_sweep([], "skylake")
        kernels = f"kernel = 'LU': sweeps cover {', '.join(SWEEP_KERNELS)}"
        with pytest.raises(ValueError, match=kernels):
            sweep_configs("knl", "LU", quick=True)
