"""Writeback conservation: no dirty line is ever silently dropped.

Two laws audited by :meth:`Hierarchy.conservation_violations`:

* per cache, ``created + received == resident_dirty + dirty_evictions +
  extracted + invalidated``;
* across the hierarchy, every dirty line leaving a cache arrives at
  another cache or at memory.

These are the property-level regressions for the historical bugs where
dirtiness-propagation inserts and prefetch fills displaced dirty victims
that vanished without a writeback.
"""

import tracemalloc

import numpy as np
import pytest

from repro.memory import for_broadwell, for_knl
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import Hierarchy, _CacheStage
from repro.platforms import McdramMode, broadwell, knl

SCALE = 0.001


def _write_heavy_trace(seed, n=20_000, span=6_000, p_write=0.5):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, span, size=n).astype(np.int64)
    writes = rng.random(n) < p_write
    return addrs, writes


def _assert_books_close(h, *, expect_memory_writebacks=True):
    violations = h.conservation_violations()
    assert violations == []
    ledger = h.dirty_ledger()
    # The trace is write-heavy: dirty lines must actually be flowing.
    assert sum(f["dirty_evictions"] for f in ledger.values()) > 0
    if expect_memory_writebacks:
        assert h.memory_writebacks() > 0
    # Every dirty eviction a non-LLC stage's cache produced this epoch
    # must have been booked as that level's writeback (the
    # dropped-Eviction bugs broke exactly this equality). Compare
    # against the ledger delta: level stats reset per epoch, cache
    # counters are monotone.
    for stage in h._stages[:-1]:
        assert stage.stats.writebacks == ledger[stage.name]["dirty_evictions"]


class TestBroadwellConservation:
    @pytest.mark.parametrize("prefetch", [None, "next-line", "stride"])
    @pytest.mark.parametrize("edram", [True, False])
    def test_random_write_heavy(self, edram, prefetch):
        addrs, writes = _write_heavy_trace(seed=101)
        h = for_broadwell(broadwell(), edram=edram, scale=SCALE, prefetch=prefetch)
        h.run_array(addrs, writes)
        _assert_books_close(h)

    @pytest.mark.parametrize("prefetch", [None, "next-line", "stride"])
    def test_scalar_path_agrees(self, prefetch):
        addrs, writes = _write_heavy_trace(seed=102, n=6_000)
        h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            h.access(a, write=w)
        _assert_books_close(h)

    def test_reset_opens_a_clean_epoch(self):
        addrs, writes = _write_heavy_trace(seed=103)
        h = for_broadwell(broadwell(), scale=SCALE, prefetch="stride")
        h.run_array(addrs, writes)
        h.reset()
        # Fresh epoch: ledger deltas restart at zero even though the
        # underlying cache counters are monotone.
        assert all(
            v == 0 for flows in h.dirty_ledger().values() for v in flows.values()
        )
        h.run_array(addrs, writes)
        _assert_books_close(h)

    def test_per_cache_law_recomputed(self):
        addrs, writes = _write_heavy_trace(seed=104)
        h = for_broadwell(broadwell(), scale=SCALE)
        h.run_array(addrs, writes)
        ledger = h.dirty_ledger()
        for flows in ledger.values():
            assert flows["created"] + flows["received"] == (
                flows["resident_dirty"]
                + flows["dirty_evictions"]
                + flows["extracted"]
                + flows["invalidated"]
            )
        out_flow = sum(
            f["dirty_evictions"] + f["extracted"] for f in ledger.values()
        )
        in_flow = sum(f["received"] + f["merged"] for f in ledger.values())
        assert out_flow == in_flow + h.memory_writebacks()


class TestKnlConservation:
    @staticmethod
    def _check(h):
        # At this scaled footprint the cache-mode MCDRAM can absorb every
        # dirty LLC eviction without spilling to DDR4, so zero memory
        # writebacks is legitimate — but the dirty lines must then show
        # up as received by the MCDRAM cache, not vanish.
        _assert_books_close(h, expect_memory_writebacks=False)
        absorbed = h.dirty_ledger().get("MCDRAM", {}).get("received", 0)
        assert h.memory_writebacks() + absorbed > 0

    @pytest.mark.parametrize("mode", list(McdramMode))
    def test_random_write_heavy(self, mode):
        addrs, writes = _write_heavy_trace(seed=105)
        h = for_knl(knl(mode), mode, scale=SCALE)
        h.run_array(addrs, writes)
        self._check(h)

    @pytest.mark.parametrize("mode", list(McdramMode))
    def test_scalar_path_agrees(self, mode):
        addrs, writes = _write_heavy_trace(seed=106, n=6_000)
        h = for_knl(knl(mode), mode, scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            h.access(a, write=w)
        self._check(h)


class TestCapacityIsFree:
    """Sets are created on first touch, so building and auditing a
    hierarchy costs the lines its trace touches, not its capacity."""

    @staticmethod
    def _cache_mode():
        # 2,097,152 direct-mapped MCDRAM sets.
        return for_knl(knl(McdramMode.CACHE), McdramMode.CACHE, scale=0.01)

    def test_build_and_audit_stay_small(self):
        tracemalloc.start()
        try:
            h = self._cache_mode()
            assert h.conservation_violations() == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h._mcdram_cache.n_sets == 1 << 21
        assert peak < 1 << 20

    def test_write_heavy_replay_closes_the_books(self):
        h = self._cache_mode()
        h.run_array(*_write_heavy_trace(seed=107))
        TestKnlConservation._check(h)


class TestAuditReadsStoredLines:
    """The per-cache law counts resident dirty bits in the stored lines,
    so a dirty bit cleared in place must be named as a violation."""

    @pytest.mark.parametrize(
        "build,level",
        [
            pytest.param(lambda: for_broadwell(broadwell(), scale=SCALE), "L2", id="broadwell-L2"),
            pytest.param(
                lambda: for_knl(knl(McdramMode.CACHE), McdramMode.CACHE, scale=SCALE),
                "MCDRAM",
                id="knl-MCDRAM",
            ),
        ],
    )
    def test_cleared_dirty_bit_is_named(self, build, level):
        h = build()
        h.run_array(*_write_heavy_trace(seed=108))
        assert h.conservation_violations() == []
        cache = dict(h._dirty_caches())[level]
        s, line = next((s, ln) for s in cache._sets.values() for ln, d in s.items() if d)
        s[line] = False
        assert [v.split(":")[0] for v in h.conservation_violations()] == [level]
        s[line] = True
        assert h.conservation_violations() == []


class TestPropagationInsertRegression:
    """Targeted regression for the dropped-Eviction propagation bug.

    A tiny two-stage hierarchy where L1 dirty evictions propagate into an
    already-full dirty L2 set: each propagation insert displaces a dirty
    L2 victim, which must surface as a DRAM writeback.
    """

    def _tiny(self):
        return Hierarchy(
            [
                _CacheStage("L1", SetAssociativeCache(64 * 2, line=64, ways=2)),
                _CacheStage("L2", SetAssociativeCache(64 * 4, line=64, ways=4)),
            ],
            line=64,
        )

    def test_displaced_dirty_victims_reach_memory(self):
        h = self._tiny()
        # Twelve distinct dirty lines through a 2-line L1 over a 4-line
        # L2: every L1 eviction is dirty and its propagation insert soon
        # displaces dirty L2 residents.
        for addr in range(12):
            h.access(addr, write=True)
        assert h.conservation_violations() == []
        assert h.memory_writebacks() > 0
        ledger = h.dirty_ledger()
        # Propagation really happened: L1's dirty evictions merged into
        # the (inclusively filled) L2 copies, and the resulting dirty L2
        # residents were themselves displaced toward memory.
        assert ledger["L1"]["dirty_evictions"] > 0
        assert ledger["L2"]["merged"] > 0
        assert ledger["L2"]["dirty_evictions"] == h.memory_writebacks()

    def test_read_only_trace_writes_nothing_back(self):
        h = self._tiny()
        for addr in range(12):
            h.access(addr, write=False)
        assert h.conservation_violations() == []
        assert h.memory_writebacks() == 0
        assert all(
            f["created"] == 0 for f in h.dirty_ledger().values()
        )
