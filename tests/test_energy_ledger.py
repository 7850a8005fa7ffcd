"""Per-level energy ledger: conservation laws, pricing, Pareto fronts.

The energy ledger gets the same discipline as the writeback ledger: the
books must close for every kernel on every configuration, and the audit
cross-checks two genuinely different summations of the same counters.
"""

import math

import pytest

from repro.memory.hierarchy import for_broadwell
from repro.platforms import broadwell, knl
from repro.power.ledger import (
    ENERGY_CONFIGS,
    build_config,
    demo_kernel,
    ledger_from_hierarchy,
    pareto_front,
    price_config,
)

KERNELS = (
    "stream",
    "gemm",
    "cholesky",
    "spmv",
    "sptrans",
    "sptrsv",
    "stencil",
    "fft",
)

#: Acceptance sweep: Broadwell eDRAM on/off and every KNL MCDRAM mode
#: (ENERGY_CONFIGS plus hybrid25, which the Pareto sweep leaves out).
ALL_CONFIGS = ENERGY_CONFIGS + (("knl", "hybrid25"),)


@pytest.fixture(scope="module")
def priced():
    """Price every kernel on every configuration once."""
    return {
        (name, platform, mode): price_config(demo_kernel(name), platform, mode)
        for name in KERNELS
        for platform, mode in ALL_CONFIGS
    }


class TestConservation:
    def test_books_close_everywhere(self, priced):
        for (name, platform, mode), run in priced.items():
            violations = run.ledger.conservation_violations()
            assert not violations, (
                f"{name} on {platform}/{mode}: {violations}"
            )

    def test_itemized_sum_equals_independent_total(self, priced):
        for run in priced.values():
            ledger = run.ledger
            itemized = sum(level.dynamic_j for level in ledger.levels)
            assert math.isclose(
                itemized, ledger.total_dynamic_j, rel_tol=1e-9, abs_tol=1e-18
            )

    def test_memory_writeback_law(self, priced):
        for run in priced.values():
            ledger = run.ledger
            priced_wb = sum(
                level.writebacks
                for level in ledger.levels
                if level.name in ledger.memory_level_names
            )
            assert priced_wb == ledger.memory_writebacks

    def test_ledgers_are_not_trivially_zero(self, priced):
        for (name, platform, mode), run in priced.items():
            assert run.ledger.total_dynamic_j > 0, (name, platform, mode)
            assert sum(lvl.accesses for lvl in run.ledger.levels) > 0


class TestPricing:
    def test_energy_exceeds_dynamic_component(self, priced):
        """Background power over non-zero seconds always adds energy."""
        for run in priced.values():
            assert run.seconds > 0
            assert run.background_w > 0
            assert run.energy_j > run.dynamic_j

    def test_derived_metrics(self, priced):
        run = priced[("gemm", "knl", "cache")]
        assert run.edp_js == pytest.approx(run.energy_j * run.seconds)
        assert run.gflops_per_watt == pytest.approx(
            run.flops / 1e9 / run.energy_j
        )

    def test_edram_bios_switch_changes_the_books(self, priced):
        off = priced[("gemm", "broadwell", "off")]
        on = priced[("gemm", "broadwell", "on")]
        assert on.background_w > off.background_w  # eDRAM static draw
        names_on = {lvl.name for lvl in on.ledger.levels}
        names_off = {lvl.name for lvl in off.ledger.levels}
        assert "eDRAM" in names_on - names_off

    def test_knl_flat_prices_mcdram_partition(self, priced):
        flat = priced[("stream", "knl", "flat")]
        assert flat.ledger["MCDRAM-flat"].accesses > 0
        assert "MCDRAM-flat" in flat.ledger.memory_level_names

    def test_knl_hybrid_splits_traffic(self, priced):
        """Hybrid's half-size partition forces a genuine DDR spill."""
        hybrid = priced[("stream", "knl", "hybrid")]
        dram = [
            n for n in hybrid.ledger.memory_level_names if n != "MCDRAM-flat"
        ][0]
        assert hybrid.ledger["MCDRAM-flat"].accesses > 0
        assert hybrid.ledger[dram].accesses > 0

    def test_as_dict_round_trips_totals(self, priced):
        run = priced[("fft", "broadwell", "on")]
        doc = run.as_dict()
        assert doc["energy_j"] == run.energy_j
        ledger_doc = run.ledger.as_dict()
        assert ledger_doc["total_dynamic_j"] == run.ledger.total_dynamic_j
        assert len(ledger_doc["levels"]) == len(run.ledger.levels)


class TestErrors:
    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="choose from"):
            demo_kernel("linpack")

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="platform"):
            build_config("vax", "on")

    def test_unknown_broadwell_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'flat' for broadwell"):
            build_config("broadwell", "flat")

    def test_unknown_knl_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'turbo' for knl"):
            build_config("knl", "turbo")

    def test_zero_reference_run_rejected(self):
        with pytest.raises(ValueError, match="replayed zero references"):
            price_config(demo_kernel("stream"), "broadwell", "on", reps=0)

    def test_mismatched_machine_rejected(self):
        """Pricing a Broadwell hierarchy with the KNL table must fail."""
        machine = broadwell(edram=True)
        hierarchy = for_broadwell(machine, edram=True, scale=0.001)
        demo_kernel("stream").simulate(hierarchy, reps=1)
        with pytest.raises(ValueError, match="describes no such level"):
            ledger_from_hierarchy(hierarchy, knl())


class _Point:
    def __init__(self, seconds, energy_j):
        self.seconds = seconds
        self.energy_j = energy_j


class TestParetoFront:
    def test_single_point_is_optimal(self):
        assert pareto_front([_Point(1.0, 1.0)]) == [True]

    def test_dominated_point_flagged(self):
        flags = pareto_front([_Point(1.0, 1.0), _Point(2.0, 2.0)])
        assert flags == [True, False]

    def test_trade_off_keeps_both(self):
        flags = pareto_front([_Point(1.0, 2.0), _Point(2.0, 1.0)])
        assert flags == [True, True]

    def test_duplicate_points_both_survive(self):
        flags = pareto_front([_Point(1.0, 1.0), _Point(1.0, 1.0)])
        assert flags == [True, True]

    def test_weak_domination_is_not_domination(self):
        # Equal seconds, strictly worse energy -> dominated.
        flags = pareto_front([_Point(1.0, 1.0), _Point(1.0, 2.0)])
        assert flags == [True, False]
