"""Set-associative cache with true-LRU replacement.

The trace-driven half of the reproduction (DESIGN.md Section 2, granularity
1) needs exact cache behaviour: set indexing, LRU stacks, dirty bits and
victim extraction. A direct-mapped cache — MCDRAM cache mode is
direct-mapped (paper Section 2.2) — is the ``ways=1`` special case.

Implementation notes: each set is a ``dict`` mapping tag -> dirty flag.
CPython dicts preserve insertion order, so "move to end on touch" gives an
exact LRU stack with O(1) amortized operations; this is the idiomatic
pure-Python equivalent of an intrusive LRU list.

Sets are created on first touch: ``_sets`` maps a set index to its dict,
and every walker (``invalidate_all``, ``len``, ``resident_lines``,
``dirty_lines``) visits only the sets a trace has touched. An MCDRAM
cache-mode cache has 262,144 sets at ``scale=0.001`` and 2^28 at full
scale, while a quick trace touches a few thousand; allocating and
auditing every set up front made a hierarchy's build time, audit time
and memory follow its simulated capacity instead of its trace. A
read-only probe may leave an empty set behind, which changes no count.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, NamedTuple


class Eviction(NamedTuple):
    """A line pushed out of a cache, with its dirtiness.

    A NamedTuple rather than a frozen dataclass: evictions are minted on
    every replacement, and tuple construction is several times cheaper
    than ``object.__setattr__``-based frozen-dataclass init while keeping
    the same field access, equality, and repr surface.
    """

    line: int
    dirty: bool


class SetAssociativeCache:
    """An LRU set-associative cache over line addresses.

    Parameters
    ----------
    capacity:
        Total capacity in bytes.
    line:
        Line size in bytes (power of two).
    ways:
        Associativity; ``1`` means direct-mapped. If the requested
        geometry does not divide evenly, the set count is rounded down to
        the nearest power of two and capacity is preserved by widening the
        ways, mimicking how real designs absorb odd capacities.
    """

    def __init__(self, capacity: int, line: int = 64, ways: int = 8) -> None:
        if capacity < line:
            raise ValueError("capacity must hold at least one line")
        if line <= 0 or line & (line - 1):
            raise ValueError("line must be a power of two")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        n_lines = capacity // line
        n_sets = max(1, n_lines // ways)
        # Round the set count down to a power of two for cheap indexing.
        n_sets = 1 << (n_sets.bit_length() - 1)
        self.line = line
        self.n_sets = n_sets
        self.ways = max(1, n_lines // n_sets)
        self.capacity = self.n_sets * self.ways * line
        self._sets: defaultdict[int, dict[int, bool]] = defaultdict(dict)
        # Plain-int telemetry counters (int += costs nothing next to the
        # dict work above; published via Hierarchy -> metrics registry).
        self.n_evictions = 0
        self.n_dirty_evictions = 0
        self.n_invalidations = 0
        # Dirty-line flow ledger. Every dirty entry this cache ever holds
        # enters through exactly one of {created (a write access),
        # received (a dirty insert onto a clean/absent entry)} and leaves
        # through exactly one of {dirty eviction, extract, merge (a dirty
        # insert coalescing onto an already-dirty entry), invalidation} —
        # or is still resident. The hierarchy's writeback-conservation
        # property test closes the books over these counters.
        self.n_dirty_created = 0
        self.n_dirty_received = 0
        self.n_dirty_merged = 0
        self.n_dirty_extracted = 0
        self.n_dirty_invalidated = 0

    # -- core operations ---------------------------------------------------

    def _set_of(self, line_addr: int) -> dict[int, bool]:
        return self._sets[line_addr & (self.n_sets - 1)]

    def lookup(self, line_addr: int, *, touch: bool = True) -> bool:
        """Probe without filling. Returns hit; refreshes LRU if ``touch``."""
        s = self._set_of(line_addr)
        if line_addr not in s:
            return False
        if touch:
            s[line_addr] = s.pop(line_addr)  # move to MRU position
        return True

    def access(self, line_addr: int, *, write: bool = False) -> tuple[bool, Eviction | None]:
        """Reference a line: returns (hit, eviction-if-fill-displaced).

        Misses allocate (write-allocate policy); writes mark dirty.
        """
        s = self._sets[line_addr & (self.n_sets - 1)]  # _set_of, inlined (hot)
        if line_addr in s:
            was_dirty = s.pop(line_addr)
            if write and not was_dirty:
                self.n_dirty_created += 1
            s[line_addr] = was_dirty or write
            return True, None
        evicted = None
        if len(s) >= self.ways:
            victim_line, victim_dirty = next(iter(s.items()))
            del s[victim_line]
            evicted = Eviction(victim_line, victim_dirty)
            self.n_evictions += 1
            self.n_dirty_evictions += victim_dirty
        s[line_addr] = write
        if write:
            self.n_dirty_created += 1
        return False, evicted

    def insert(self, line_addr: int, *, dirty: bool = False) -> Eviction | None:
        """Install a line (e.g. a victim fill) without counting a reference."""
        s = self._sets[line_addr & (self.n_sets - 1)]  # _set_of, inlined (hot)
        if line_addr in s:
            was_dirty = s.pop(line_addr)
            if dirty:
                if was_dirty:
                    self.n_dirty_merged += 1
                else:
                    self.n_dirty_received += 1
            s[line_addr] = was_dirty or dirty
            return None
        evicted = None
        if len(s) >= self.ways:
            victim_line, victim_dirty = next(iter(s.items()))
            del s[victim_line]
            evicted = Eviction(victim_line, victim_dirty)
            self.n_evictions += 1
            self.n_dirty_evictions += victim_dirty
        s[line_addr] = dirty
        if dirty:
            self.n_dirty_received += 1
        return evicted

    def extract(self, line_addr: int) -> bool | None:
        """Remove a line, returning its dirty bit, or None if absent.

        Victim-cache promotion (eDRAM hit moves the line back up to L3 —
        paper Section 2.1) uses this.
        """
        s = self._set_of(line_addr)
        if line_addr in s:
            dirty = s.pop(line_addr)
            self.n_dirty_extracted += dirty
            return dirty
        return None

    def invalidate_all(self) -> None:
        """Drop all contents (used between experiment repetitions)."""
        self.n_dirty_invalidated += self.dirty_resident()
        self._sets.clear()
        self.n_invalidations += 1

    def telemetry_counters(self) -> dict[str, int]:
        """Replacement-traffic counters for the metrics registry."""
        return {
            "evictions": self.n_evictions,
            "dirty_evictions": self.n_dirty_evictions,
            "invalidations": self.n_invalidations,
            "dirty_created": self.n_dirty_created,
            "dirty_received": self.n_dirty_received,
            "dirty_merged": self.n_dirty_merged,
            "dirty_extracted": self.n_dirty_extracted,
        }

    # -- introspection -----------------------------------------------------

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._set_of(line_addr)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def resident_lines(self) -> Iterator[int]:
        """All line addresses currently cached (unordered across sets)."""
        for s in self._sets.values():
            yield from s

    def dirty_lines(self) -> Iterator[int]:
        """Line addresses currently cached dirty (unordered across sets)."""
        for s in self._sets.values():
            for line_addr, dirty in s.items():
                if dirty:
                    yield line_addr

    def dirty_resident(self) -> int:
        """Number of dirty lines currently resident."""
        return sum(1 for _ in self.dirty_lines())

    def dirty_flows(self) -> dict[str, int]:
        """The dirty-line ledger (see the counter comment in __init__)."""
        return {
            "created": self.n_dirty_created,
            "received": self.n_dirty_received,
            "merged": self.n_dirty_merged,
            "extracted": self.n_dirty_extracted,
            "invalidated": self.n_dirty_invalidated,
            "dirty_evictions": self.n_dirty_evictions,
            "resident_dirty": self.dirty_resident(),
        }

    @property
    def is_direct_mapped(self) -> bool:
        return self.ways == 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache(capacity={self.capacity}, line={self.line}, "
            f"sets={self.n_sets}, ways={self.ways})"
        )


def direct_mapped(capacity: int, line: int = 64) -> SetAssociativeCache:
    """Convenience constructor for MCDRAM-cache-mode-style caches."""
    return SetAssociativeCache(capacity, line=line, ways=1)
