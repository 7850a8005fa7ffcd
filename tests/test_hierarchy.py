"""Composed hierarchy simulator tests: platform shapes and OPM semantics."""

import pytest

from repro.memory import (
    NumaAllocator,
    for_broadwell,
    for_knl,
    hierarchy_allocator,
)
from repro.platforms import McdramMode, broadwell, knl
from repro.trace import expand_lines, repeated_sweep_array, sequential_array

#: Scale factor making capacities small enough for fast exact simulation.
SCALE = 0.001


def _lines(addrs, writes):
    """Word accesses expanded to the (line_addrs, writes) replay input."""
    return expand_lines(addrs, 8, writes)


def _sweep_stats(hierarchy, n_words, sweeps=4, base=0, write=False):
    addrs, writes = repeated_sweep_array(base, n_words, sweeps, write=write)
    return hierarchy.run_array(*_lines(addrs, writes))


class TestBroadwellShape:
    def test_level_names(self):
        stats = _sweep_stats(for_broadwell(broadwell(), scale=SCALE), 100)
        names = [lvl.name for lvl in stats]
        assert names == ["L1", "L2", "L3", "eDRAM", "DDR3"]

    def test_without_edram_has_no_l4(self):
        h = for_broadwell(broadwell(), edram=False, scale=SCALE)
        names = [lvl.name for lvl in h.stats()]
        assert "eDRAM" not in names

    def test_small_sweep_hits_l1(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        # 4 words fit one line; repeated sweeps all hit L1 after the
        # first fill.
        stats = _sweep_stats(h, 4, sweeps=10)
        assert stats["L1"].hit_rate > 0.95

    def test_edram_captures_l3_spill(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        # Working set above the scaled L3 but below the scaled eDRAM.
        stats = _sweep_stats(h, 2000, sweeps=5)
        assert stats["eDRAM"].hits > 0
        # DRAM only sees compulsory traffic (first sweep).
        assert stats["DDR3"].accesses == pytest.approx(250, abs=5)

    def test_edram_hit_rate_beats_no_edram_dram_traffic(self):
        on = for_broadwell(broadwell(), edram=True, scale=SCALE)
        off = for_broadwell(broadwell(), edram=False, scale=SCALE)
        s_on = _sweep_stats(on, 2000, sweeps=5)
        s_off = _sweep_stats(off, 2000, sweeps=5)
        assert s_on["DDR3"].accesses < s_off["DDR3"].accesses

    def test_victim_promotion_keeps_line_out_of_l4(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        _sweep_stats(h, 2000, sweeps=2)
        # After the run, lines recently promoted back to L3 must not
        # be double-counted: hit rates stay in [0, 1].
        for lvl in h.stats():
            assert 0.0 <= lvl.hit_rate <= 1.0

    def test_reset_zeroes_counters(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        _sweep_stats(h, 500)
        h.reset()
        assert h.stats().total_accesses == 0

    def test_write_trace_produces_writebacks(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        _sweep_stats(h, 5000, sweeps=3, write=True)
        total_wb = sum(lvl.writebacks for lvl in h.stats())
        assert total_wb > 0


class TestKnlShapes:
    def test_off_mode_all_ddr(self):
        h = for_knl(knl(), McdramMode.OFF, scale=SCALE)
        stats = _sweep_stats(h, 4000)
        assert stats["DDR4"].accesses > 0
        assert stats["MCDRAM-flat"].accesses == 0 if any(
            l.name == "MCDRAM-flat" for l in stats
        ) else True

    def test_cache_mode_absorbs_repeat_traffic(self):
        h = for_knl(knl(), McdramMode.CACHE, scale=SCALE)
        # Working set above the scaled L2 (32 KB) but inside the scaled
        # MCDRAM (16 MB): repeats must be served by the MCDRAM cache.
        stats = _sweep_stats(h, 40_000, sweeps=5)
        assert stats["MCDRAM"].hits > 0
        # Compulsory DDR traffic only.
        assert stats["DDR4"].accesses <= stats["MCDRAM"].accesses

    def test_flat_mode_serves_from_mcdram_node(self):
        h = for_knl(knl(), McdramMode.FLAT, scale=SCALE)
        alloc = hierarchy_allocator(h)
        assert alloc is not None
        alloc.allocate("a", 4000 * 8)
        stats = _sweep_stats(h, 4000, sweeps=3, base=4096)
        assert stats["MCDRAM-flat"].hits > 0
        assert stats["DDR4"].accesses == 0

    def test_flat_mode_spill_splits_traffic(self):
        machine = knl()
        # Tiny explicit allocator: MCDRAM holds one page only.
        alloc = NumaAllocator(4096, 1 << 30)
        h = for_knl(machine, McdramMode.FLAT, allocator=alloc, scale=SCALE)
        alloc.allocate("a", 3 * 4096)
        stats = h.run_array(*_lines(*sequential_array(4096, 3 * 512)))
        assert stats["MCDRAM-flat"].accesses > 0
        assert stats["DDR4"].accesses > 0

    def test_hybrid_mode_uses_both_halves(self):
        h = for_knl(knl(), McdramMode.HYBRID, scale=SCALE)
        alloc = hierarchy_allocator(h)
        assert alloc is not None
        # Allocate past the scaled flat half so some pages land on DDR,
        # where the cache half then captures repeats.
        flat_cap = alloc.mcdram_capacity
        alloc.allocate("a", flat_cap + 20 * 4096)
        n_words = (flat_cap + 20 * 4096) // 8
        stats = _sweep_stats(h, n_words, sweeps=4, base=4096)
        assert stats["MCDRAM-flat"].hits > 0
        assert stats["MCDRAM"].hits > 0  # cache half

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_builders_reject_nonpositive_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be > 0"):
            for_knl(knl(), McdramMode.HYBRID, scale=scale)
        with pytest.raises(ValueError, match="scale must be > 0"):
            for_broadwell(broadwell(), scale=scale)

    @pytest.mark.parametrize("scale", [2.0, float("inf")])
    def test_builders_reject_scale_above_one(self, scale):
        with pytest.raises(ValueError, match="scale must be <= 1"):
            for_knl(knl(), McdramMode.HYBRID, scale=scale)
        with pytest.raises(ValueError, match="scale must be <= 1"):
            for_broadwell(broadwell(), scale=scale)

    def test_direct_mapped_cache_mode(self):
        # MCDRAM cache mode must be direct-mapped (paper Section 2.2).
        h = for_knl(knl(), McdramMode.CACHE, scale=SCALE)
        assert h._mcdram_cache is not None
        assert h._mcdram_cache.is_direct_mapped


class TestAgainstStackDistance:
    def test_l1_hit_rate_matches_stack_distance_prediction(self):
        """The exact simulator agrees with the stack-distance CDF for a
        fully-associative-equivalent level (validation of the bridge the
        analytic engine rests on)."""
        from repro.trace import stack_distances

        machine = broadwell()
        h = for_broadwell(machine, scale=SCALE)
        lines, writes = _lines(*repeated_sweep_array(0, 256, 6))
        stats = h.run_array(lines, writes)
        profile = stack_distances(lines)
        l1_lines = h._stages[0].cache.capacity // 64
        predicted = profile.hit_rate(l1_lines)
        # Set-associativity makes the exact value differ slightly; the
        # sequential sweep is conflict-free so they should be close.
        assert stats["L1"].hit_rate == pytest.approx(predicted, abs=0.05)
