"""Trace-driven memory-hierarchy simulator.

Composes the pieces of :mod:`repro.memory` into the two platform shapes of
the paper:

* Broadwell: L1 -> L2 -> L3 -> [eDRAM victim L4] -> DDR3
* KNL:       L1 -> L2 -> [MCDRAM stage per mode] -> DDR4 / MCDRAM-flat

The simulator is exact (set indexing, LRU, victim promotion, direct-map
conflicts, NUMA placement) and is the ground truth the analytic engine in
:mod:`repro.engine` is validated against. It is meant for small traces;
full-scale sweeps use the analytic model (DESIGN.md Section 2).
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Iterable, Iterator

import numpy as np

from repro import telemetry
from repro.memory.allocator import Node, NumaAllocator
from repro.memory.cache import Eviction, SetAssociativeCache
from repro.memory.mcdram import McdramConfig
from repro.memory.stats import HierarchyStats, LevelStats
from repro.telemetry import names as tm
from repro.memory.victim import VictimCache
from repro.platforms.spec import MachineSpec
from repro.platforms.tuning import EdramMode, McdramMode
from repro.trace.batch import CHUNK


#: Sentinel distinguishing "absent" from a stored dirty flag in the
#: batched inner loop's single-operation set probes.
_MISS = object()

#: Below this many events a level pass skips set classification outright:
#: the np.unique + residency probe would cost more than the plain loop.
_CLASSIFY_MIN = 1024

#: Event kind of a prefetcher observation in a prefetching hierarchy's
#: LLC pass (0 is a demand access, 1 a dirty-victim insert).
_OBSERVE = 2

#: Adaptive sub-block sizing for the batched path. Blocks start small so
#: a cold cache (where classification can't help) pays little overhead,
#: and double on mostly-vectorized blocks so a warm steady state amortizes
#: one classification pass over up to 64Ki references.
_BLOCK_MIN = 4096
_BLOCK_MAX = 1 << 16

#: The cache counters a level pass advances; a replay group's other
#: members take the receiver's deltas of these above the LLC.
_PASS_COUNTERS = (
    "n_evictions",
    "n_dirty_evictions",
    "n_dirty_created",
    "n_dirty_received",
    "n_dirty_merged",
)


class _CacheStage:
    """A standard inclusive-fill cache level with its counters."""

    def __init__(self, name: str, cache: SetAssociativeCache) -> None:
        self.name = name
        self.cache = cache
        self.stats = LevelStats(name=name, line=cache.line)
        #: Events the batched replay resolved wholesale, walked, or
        #: skipped once a repeated trace's replay repeated here (monotone,
        #: like the cache's replacement counters).
        self.wholesale = 0
        self.walked = 0
        self.fast_forwarded = 0


class Hierarchy:
    """A configured memory hierarchy accepting a line-address trace.

    Use the :func:`for_broadwell` / :func:`for_knl` builders rather than
    constructing directly.
    """

    def __init__(
        self,
        cache_stages: list[_CacheStage],
        *,
        line: int,
        victim: VictimCache | None = None,
        victim_name: str = "eDRAM",
        mcdram_cache: SetAssociativeCache | None = None,
        allocator: NumaAllocator | None = None,
        memory_names: tuple[str, str] = ("DRAM", "MCDRAM-flat"),
        prefetcher: object | None = None,
    ) -> None:
        if not cache_stages:
            raise ValueError("at least one cache stage required")
        self.line = line
        self._stages = cache_stages
        self._victim = victim
        self._victim_stats = (
            LevelStats(name=victim_name, line=line) if victim is not None else None
        )
        self._mcdram_cache = mcdram_cache
        self._mcdram_stats = (
            LevelStats(name="MCDRAM", line=line) if mcdram_cache is not None else None
        )
        self._allocator = allocator
        #: Optional prefetcher (repro.memory.prefetch) observing the core
        #: reference stream and inserting into the deepest on-chip cache
        #: (the last stage), mirroring an LLC-side hardware prefetcher.
        self._prefetcher = prefetcher
        if prefetcher is not None:
            # Victims displaced by prefetch fills take the same path as
            # demand-fill evictions at the target level; without this,
            # dirty LLC lines displaced by prefetches would vanish with
            # no writeback counted.
            prefetcher.on_evict = self._prefetch_displaced
        #: Prefetch observations the LLC passes received (one per
        #: replayed reference) and probed; the rest were pruned as
        #: changing nothing (monotone, like the stages' replay counters).
        self.observed = 0
        self.probed = 0
        self._dram_stats = LevelStats(name=memory_names[0], line=line)
        self._flat_stats = (
            LevelStats(name=memory_names[1], line=line) if allocator is not None else None
        )
        # Last counter totals published to the metrics registry, so that
        # repeated run() calls on one hierarchy publish deltas, not
        # ever-growing cumulative sums.
        self._published: dict[str, dict[str, int]] = {}
        # Dirty-flow counter totals at the last reset(): the conservation
        # ledger reports per-epoch deltas while the underlying cache
        # counters stay monotone for telemetry.
        self._ledger_base: dict[str, dict[str, int]] = {}

    # -- simulation --------------------------------------------------------

    def access(self, line_addr: int, *, write: bool = False) -> str:
        """Reference one cache line; returns the servicing level's name.

        This is the scalar *reference* path: one reference at a time,
        every stage probed through the generic walk. The batched replay
        behind every ``run*`` entry point must stay byte-identical to it
        (``tests/test_trace_batch.py`` enforces this differentially).
        """
        if self._prefetcher is not None:
            issued = len(self._prefetcher.observe(line_addr))
            if issued:
                # Prefetch fills are real traffic: they load the LLC from
                # memory (counted as DRAM reads + LLC fills).
                self._stages[-1].stats.fills += issued
                self._dram_stats.accesses += issued
                self._dram_stats.hits += issued
        stages = self._stages
        last = len(stages) - 1
        for i, stage in enumerate(stages):
            st = stage.stats
            st.accesses += 1
            hit, ev = stage.cache.access(line_addr, write=write)
            if hit:
                st.hits += 1
                return stage.name
            st.misses += 1
            st.fills += 1
            # A clean victim of a non-last stage needs no handling
            # (_handle_eviction would fall straight through); skipping
            # the call is a pure fast-path, not a behaviour change.
            if ev is not None and (ev.dirty or i == last):
                self._handle_eviction(i, ev)
        return self._service_below(line_addr, write)

    def run(self, trace: Iterable[tuple[int, bool]]) -> HierarchyStats:
        """Drive a whole (line_addr, is_write) trace and return the stats.

        An adapter over the batched replay: pairs are gathered into
        ``CHUNK``-sized ndarrays and validated like :meth:`run_array`.
        """

        def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for batch in _batches(trace):
                addrs, writes = zip(*batch)
                yield np.array(addrs), np.array(writes)

        return self._replay(chunks())

    def run_lines(self, lines: Iterable[int], *, write: bool = False) -> HierarchyStats:
        """Drive a read-only (or write-only) line-address stream."""
        return self._replay(
            ((np.array(b), bool(write)) for b in _batches(lines)), write=write
        )

    def run_array(
        self,
        addrs: np.ndarray,
        writes: np.ndarray | bool | None = None,
    ) -> HierarchyStats:
        """Drive one ndarray chunk of line addresses.

        ``addrs`` is a 1-D integer array of line addresses; ``writes`` is
        a matching bool array, a scalar bool applied to every reference,
        or ``None`` (all reads). Telemetry is hoisted to chunk
        granularity and the inner loop binds every hot attribute to a
        local, but the simulated behaviour — cache contents, eviction
        order, every counter — is byte-identical to feeding the same
        references through :meth:`access` one at a time.
        """
        return self._replay([(addrs, writes)])

    def run_batched(
        self,
        chunks: Iterable[tuple[np.ndarray, np.ndarray | bool | None]],
        *,
        also: Iterable[Hierarchy] = (),
        reps: int = 1,
    ) -> HierarchyStats:
        """Drive an iterable of ``(addrs, writes)`` ndarray chunks.

        The streaming companion to :meth:`run_array` — chunk generators
        (``repro.trace.batch``, ``repro.kernels.traces.kernel_trace_chunks``)
        plug in directly; one telemetry span covers the whole batch.

        ``also`` names other hierarchies to drive with the same chunks.
        Nothing at or below the LLC feeds back into the levels above it,
        so the group replays those levels once, on this hierarchy, and
        each member runs its own LLC and everything below on the events
        they leave over. Every member must match this one above the LLC
        in geometry and starting contents (``ValueError`` otherwise,
        before anything replays), and each ends exactly as its own solo
        replay would. Returns this hierarchy's stats.

        ``chunks`` is one repetition of a trace, replayed ``reps`` times
        (0 replays nothing; a negative count is a ``ValueError``). From
        the second repetition on, the levels above the LLC stop running
        once their contents equal the first repetition's at the same
        reference: what they would hand the LLC from there on is what
        they handed it then. Every member's LLC replays that recorded
        residue, and those levels take the first repetition's counter
        deltas and end contents.
        """
        if reps < 0:
            raise ValueError(f"reps must be >= 0, got {reps}")
        return self._replay(chunks, also=tuple(also), reps=reps)

    def _replay(
        self,
        chunks: Iterable,
        *,
        also: tuple[Hierarchy, ...] = (),
        reps: int = 1,
        **attrs: object,
    ) -> HierarchyStats:
        """Validate and replay ``(addrs, writes)`` chunks ``reps`` times
        under one span."""
        group = (self, *also)
        _check_group(group)
        with telemetry.span(
            tm.SPAN_HIERARCHY_RUN, line=self.line, hierarchies=len(group), reps=reps, **attrs
        ) as sp:
            before = self._interior_counts()
            record = _Recording(self) if reps > 1 else None
            total = 0
            try:
                for addrs, writes in chunks if reps else ():
                    arr, warr = _coerce_chunk(addrs, writes)
                    self._run_chunk(arr, warr, group, record)
                    total += int(arr.shape[0])
                if record is not None:
                    record.close(self)
                    for _ in range(reps - 1):
                        self._repeat(record, group)
            finally:
                # Also on a bad chunk: every member stops where its solo
                # replay would have.
                for h in also:
                    h._follow(self, before)
            sp.set_attr("refs", total * reps)
        for h in group:
            h._publish_telemetry()
        return self.stats()

    # -- internals ---------------------------------------------------------

    def _prefetch_displaced(self, ev: Eviction) -> None:
        """Sink for victims displaced out of the LLC by prefetch fills."""
        self._handle_eviction(len(self._stages) - 1, ev)

    def _interior_shape(self) -> tuple:
        """Line size, level count and the geometry of every level above
        the LLC: what a replay group's members must share."""
        return (
            self.line,
            len(self._stages),
            [(s.cache.n_sets, s.cache.ways, s.cache.line) for s in self._stages[:-1]],
        )

    def _interior_image(self) -> tuple[bytes, ...]:
        """LRU order and dirty bits of every level above the LLC, one byte
        string per level: its lines (int64), then their dirty bits, in
        set-index order. A line's address names its set, so equal images
        mean equal contents."""
        image = []
        for st in self._stages[:-1]:
            sets = st.cache._sets
            ordered = [sets[k] for k in sorted(sets)]
            lines = np.fromiter(chain.from_iterable(ordered), dtype=np.int64)
            dirty = np.fromiter(chain.from_iterable(s.values() for s in ordered), dtype=bool)
            image.append(lines.tobytes() + dirty.tobytes())
        return tuple(image)

    def _interior_counts(self) -> list[tuple[dict[str, int], dict[str, int]]]:
        """Level stats and pass-advanced cache counters above the LLC."""
        return [
            (st.stats.counters(), {a: getattr(st.cache, a) for a in _PASS_COUNTERS})
            for st in self._stages[:-1]
        ]

    def _interior_state(self) -> tuple:
        """What a repetition's checkpoint keeps of the levels above the
        LLC: their image, their counts, and the events each received."""
        return (
            self._interior_image(),
            self._interior_counts(),
            [st.wholesale + st.walked + st.fast_forwarded for st in self._stages[:-1]],
        )

    def _take_interior(self, start: list, stop: list, contents: list) -> None:
        """Advance the counts above the LLC by ``stop - start`` (both
        :meth:`_interior_counts`) and copy ``contents`` (one set index ->
        set mapping per level) in as the sets there."""
        for stage, (stats0, cache0), (stats1, cache1), sets in zip(
            self._stages, start, stop, contents
        ):
            for k, v in stats1.items():
                setattr(stage.stats, k, getattr(stage.stats, k) + v - stats0[k])
            for a, v in cache1.items():
                setattr(stage.cache, a, getattr(stage.cache, a) + v - cache0[a])
            stage.cache._sets.clear()
            stage.cache._sets.update((k, dict(s)) for k, s in sets.items())

    def _follow(self, receiver: Hierarchy, before: list) -> None:
        """Take ``receiver``'s contents above the LLC, and the counts its
        levels there advanced by since ``before``, as this member's own."""
        self._take_interior(
            before,
            receiver._interior_counts(),
            [st.cache._sets for st in receiver._stages[:-1]],
        )

    def _repeat(self, record: _Recording, group: tuple) -> None:
        """Replay the recorded repetition once more, on its sub-blocks.

        Each block runs in full until, at a checkpoint, the contents
        above the LLC equal the recording's. From there on each member's
        LLC pass takes the recorded residue, and the levels above the LLC
        jump to the recording's end: counts advanced by its deltas since
        the checkpoint, contents copied.
        """
        for k, (refs, writes, _, state) in enumerate(record.blocks):
            if state is not None and state[0] == self._interior_image():
                for later_refs, _, residue, _ in record.blocks[k:]:
                    for h in group:
                        h._llc_pass(later_refs, *residue)
                (_, counts0, events0), (_, counts1, events1) = state, record.end
                self._take_interior(counts0, counts1, record.end_sets)
                for st, e0, e1 in zip(self._stages, events0, events1):
                    st.fast_forwarded += e1 - e0
                return
            self._run_block(refs, writes, group)

    def _run_chunk(
        self,
        addrs: np.ndarray,
        writes: np.ndarray,
        group: tuple,
        record: _Recording | None = None,
    ) -> None:
        # The batched inner loop: set-bucketed, level-by-level replay.
        #
        # Each sub-block makes one pass per cache level over an *event*
        # stream (demand accesses plus dirty-victim inserts bound for
        # that level). A pass classifies the level's sets: a set whose
        # distinct touched lines are all initially resident — and which
        # receives no victim inserts — can only produce hits, so its
        # final LRU order, dirty bits and counters are computed
        # wholesale from NumPy reductions (one dict pop/re-add per
        # *distinct* line instead of one per reference). Only events
        # landing in the remaining "slow" sets run the sequential loop;
        # their miss residue (the access plus any dirty victim, in
        # scalar propagation order) becomes the next level's event
        # stream. This is byte-identical to feeding access() one
        # reference at a time because levels never feed upward: victim
        # promotion only ever inserts into the set that just missed,
        # which is slow by construction.
        #
        # Prefetchers only insert into the LLC, and LLC evictions never
        # travel back up, so L1/L2 state does not depend on them. Each
        # reference's prefetch *observation* joins the LLC pass as a
        # third event kind unless it provably changes nothing (see
        # _observation_stream). For the same reason a replay group (this
        # hierarchy first) runs the levels above the LLC once, and each
        # member's LLC pass starts from that one residue.
        #
        # Adaptive sub-blocks: grow while the first level resolves
        # (almost) everything vectorized, shrink back the moment it
        # stops — a cold or thrashing phase then pays classification on
        # small blocks only.
        n = addrs.shape[0]
        block = _BLOCK_MIN
        start = 0
        while start < n:
            end = start + block
            mostly_fast = self._run_block(addrs[start:end], writes[start:end], group, record)
            start = end
            block = min(block * 2, _BLOCK_MAX) if mostly_fast else _BLOCK_MIN

    def _run_block(
        self,
        lines: np.ndarray,
        flags: np.ndarray,
        group: tuple,
        record: _Recording | None = None,
    ) -> bool:
        """Replay one sub-block through every level of every group member,
        adding it to ``record`` if given; returns whether the first level
        handled (nearly) all of it on the vectorized path."""
        llc = len(self._stages) - 1
        refs, writes = lines, flags
        state = None if record is None else record.checkpoint(self)
        prefetching = any(h._prefetcher is not None for h in group)
        idx = np.arange(lines.shape[0]) if prefetching else None
        ins: np.ndarray | None = None
        first_fast = False
        for i in range(llc):
            lines, ins, flags, idx, fast = self._level_pass(i, lines, ins, flags, idx)
            if i == 0:
                first_fast = fast
            if lines is None:
                break
        if record is not None:
            record.add(refs, writes, (lines, ins, flags, idx), state)
        for h in group:
            fast = h._llc_pass(refs, lines, ins, flags, idx)
            if llc == 0 and h is self:
                first_fast = fast
        return first_fast

    def _llc_pass(
        self,
        refs: np.ndarray,
        lines: np.ndarray | None,
        ins: np.ndarray | None,
        flags: np.ndarray | None,
        idx: np.ndarray | None,
    ) -> bool:
        """Run the LLC, and everything below it, on the events the levels
        above left over from the block ``refs``; returns the pass's
        mostly-vectorized flag."""
        pf = self._prefetcher
        if pf is not None:
            # Every reference is observed, even in a block the levels
            # above resolved wholesale, unless that changes nothing.
            self.observed += refs.shape[0]
            strides = pf.issue_strides(refs)
            if lines is None and pf.idle(refs, strides):
                return False
            live = pf.live(refs, strides)
            lines, ins, flags = _observation_stream(refs, strides, live, lines, ins, flags, idx)
        if lines is None:
            return False
        return self._level_pass(len(self._stages) - 1, lines, ins, flags, None)[-1]

    def _level_pass(
        self,
        i: int,
        lines: np.ndarray,
        ins: np.ndarray | None,
        flags: np.ndarray,
        idx: np.ndarray | None,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray | None, bool]:
        """Drive one level's event stream; return the next level's.

        ``lines`` holds the event line addresses in order; ``ins`` marks
        which events are dirty-victim inserts (None = pure access
        stream); ``flags`` carries the write bit for accesses and the
        dirty bit (always True) for inserts. ``idx`` (None unless a
        member of the replay group prefetches) holds each event's origin:
        the index of the block reference that caused it; the LLC pass
        gets None. A prefetching hierarchy's LLC pass
        gets event kinds in ``ins`` (see :func:`_observation_stream`).
        Returns ``(lines, ins, flags, idx, mostly_fast)`` for the next
        level, with ``lines is None`` when nothing propagates deeper.
        """
        stage = self._stages[i]
        cache = stage.cache
        mask = cache.n_sets - 1
        ways = cache.ways
        last = i == len(self._stages) - 1
        pf = self._prefetcher if last else None
        st = stage.stats
        n = lines.shape[0]
        # The per-event loops below index a list, which is cheaper than
        # the mapping, whenever creating every set costs no more than the
        # pass has events. It holds the mapping's own dicts, and nothing
        # replaces a set dict mid-pass.
        sets = cache._sets
        if cache.n_sets <= n:
            sets = [sets[k] for k in range(cache.n_sets)]
        fast_ok = False
        # Observations may prefetch into any set: no all-hit sets there.
        if n >= _CLASSIFY_MIN and pf is None:
            uniq, inv = np.unique(lines, return_inverse=True)
            nu = uniq.shape[0]
            if nu * 4 <= n:
                usets = uniq & mask
                ul = uniq.tolist()
                usl = usets.tolist()
                resident = np.fromiter(
                    (ln in sets[si] for ln, si in zip(ul, usl)),
                    dtype=bool,
                    count=nu,
                )
                # A set is slow if any of its touched lines starts
                # non-resident (a miss will evict there) or if a victim
                # insert targets it (inserts can displace residents).
                slow_sets = np.zeros(cache.n_sets, dtype=bool)
                slow_sets[usets[~resident]] = True
                if ins is not None:
                    slow_sets[lines[ins] & mask] = True
                ev_slow = slow_sets[lines & mask]
                n_slow = int(ev_slow.sum())
                if n_slow * 2 <= n:
                    # Vectorized wholesale update of the all-hit sets.
                    # Scalar LRU leaves untouched residents in front (in
                    # their original order) and touched lines behind
                    # them ordered by *last* touch; one pop/re-add per
                    # distinct line in global last-touch order lands the
                    # exact same dict state. Dirty bit: initial OR any
                    # write; n_dirty_created: first write to an
                    # initially-clean line.
                    n_fast = n - n_slow
                    wmask = flags if ins is None else flags & ~ins
                    wcnt = np.bincount(inv[wmask], minlength=nu)
                    lastpos = np.empty(nu, dtype=np.intp)
                    lastpos[inv] = np.arange(n, dtype=np.intp)
                    fast_u = np.flatnonzero(~slow_sets[usets])
                    order = fast_u[np.argsort(lastpos[fast_u])]
                    wrote = (wcnt > 0).tolist()
                    created_fast = 0
                    for ui in order.tolist():
                        ln = ul[ui]
                        s = sets[usl[ui]]
                        d = s.pop(ln)
                        if wrote[ui] and not d:
                            created_fast += 1
                            d = True
                        s[ln] = d
                    st.accesses += n_fast
                    st.hits += n_fast
                    stage.wholesale += n_fast
                    cache.n_dirty_created += created_fast
                    if n_slow == 0:
                        return None, None, None, None, True
                    fast_ok = n_slow * 16 <= n
                    keep = np.flatnonzero(ev_slow)
                    lines = lines[keep]
                    flags = flags[keep]
                    if idx is not None:
                        idx = idx[keep]
                    if ins is not None:
                        ins = ins[keep]
                        if not ins.any():
                            ins = None
        # Sequential replay of the slow-set events. Four specialized
        # loops (pure-access vs mixed, last vs interior level) keep the
        # hot one lean; all accumulate counters in locals, flushed once.
        handle = self._handle_eviction
        service = self._service_below
        make_ev = Eviction
        miss = _MISS  # sentinel: probe + LRU-pop in one dict operation
        out_lines: list = []
        out_ins: list = []  # input position j of an access, ~j of an insert
        out_flags: list = []
        ol_append = out_lines.append
        oi_append = out_ins.append
        of_append = out_flags.append
        hits = created = evs = devs = wb = merged = received = 0
        issued = useful = probed = 0
        sl = lines.tolist()
        fl = flags.tolist()
        if ins is None:
            accs = walked = len(sl)
            if last:
                for addr, w in zip(sl, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if was_dirty is not miss:
                        hits += 1
                        if w and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    ev = None
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        devs += vd
                        ev = make_ev(vl, vd)
                    s[addr] = w
                    if w:
                        created += 1
                    if ev is not None:
                        handle(i, ev)
                    service(addr, w)
            else:
                for j, addr, w in zip(count(), sl, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if was_dirty is not miss:
                        hits += 1
                        if w and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    # Miss: any dirty victim's insert precedes the
                    # access in the next level's stream, exactly as
                    # _handle_eviction runs before the walk descends. A
                    # clean interior victim is dropped (pure fast-path:
                    # _handle_eviction would fall straight through).
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        if vd:
                            devs += 1
                            wb += 1
                            ol_append(vl)
                            oi_append(~j)
                            of_append(True)
                    s[addr] = w
                    if w:
                        created += 1
                    ol_append(addr)
                    oi_append(j)
                    of_append(w)
        else:
            il = ins.tolist()
            accs = int(np.count_nonzero(ins == 0))
            walked = accs + int(np.count_nonzero(ins == 1))
            if last:
                if pf is not None:
                    pending = pf._outstanding
                    install = pf._install
                    upto = pf.degree + 1
                # Line -> stride of the latest observation of that line
                # since the last LLC fill (demand miss, insert miss or
                # prefetch install), if it issued nothing. Observing the
                # same (line, stride) again changes nothing: only a fill
                # can evict a candidate or make the line outstanding.
                quiet: dict[int, int] = {}
                forget = quiet.clear
                observe = _OBSERVE
                for addr, is_ins, fg in zip(sl, il, fl):
                    if is_ins == observe:
                        if addr in quiet and quiet[addr] == fg:
                            continue
                        # observe() with the probes inlined: score a
                        # useful prefetch, then issue each candidate that
                        # is neither resident nor outstanding.
                        probed += 1
                        if addr in pending:
                            useful += 1
                            pending.discard(addr)
                        if fg:
                            before = issued
                            for t in range(addr + fg, addr + fg * upto, fg):
                                if t < 0 or t in sets[t & mask] or t in pending:
                                    continue
                                install(t)
                                issued += 1
                            if issued != before:
                                forget()
                                continue
                        quiet[addr] = fg
                        continue
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if is_ins:
                        if was_dirty is not miss:
                            if was_dirty:
                                merged += 1
                            else:
                                received += 1
                            s[addr] = True
                            continue
                        forget()
                        ev = None
                        if len(s) >= ways:
                            vl, vd = next(iter(s.items()))
                            del s[vl]
                            evs += 1
                            devs += vd
                            ev = make_ev(vl, vd)
                        s[addr] = True
                        received += 1
                        if ev is not None:
                            handle(i, ev)
                        continue
                    if was_dirty is not miss:
                        hits += 1
                        if fg and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    forget()
                    ev = None
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        devs += vd
                        ev = make_ev(vl, vd)
                    s[addr] = fg
                    if fg:
                        created += 1
                    if ev is not None:
                        handle(i, ev)
                    service(addr, fg)
            else:
                for j, addr, is_ins, fg in zip(count(), sl, il, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if is_ins:
                        if was_dirty is not miss:
                            if was_dirty:
                                merged += 1
                            else:
                                received += 1
                            s[addr] = True
                            continue
                        if len(s) >= ways:
                            vl, vd = next(iter(s.items()))
                            del s[vl]
                            evs += 1
                            if vd:
                                devs += 1
                                wb += 1
                                ol_append(vl)
                                oi_append(~j)
                                of_append(True)
                        s[addr] = True
                        received += 1
                        continue
                    if was_dirty is not miss:
                        hits += 1
                        if fg and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        if vd:
                            devs += 1
                            wb += 1
                            ol_append(vl)
                            oi_append(~j)
                            of_append(True)
                    s[addr] = fg
                    if fg:
                        created += 1
                    ol_append(addr)
                    oi_append(j)
                    of_append(fg)
        st.accesses += accs
        st.hits += hits
        misses = accs - hits
        st.misses += misses
        st.fills += misses
        st.writebacks += wb
        cache.n_evictions += evs
        cache.n_dirty_evictions += devs
        cache.n_dirty_created += created
        cache.n_dirty_received += received
        cache.n_dirty_merged += merged
        stage.walked += walked
        if pf is not None:
            # Prefetch fills, in bulk (see access()).
            st.fills += issued
            self._dram_stats.accesses += issued
            self._dram_stats.hits += issued
            pf.stats.useful += useful
            self.probed += probed
        if last or not out_lines:
            return None, None, None, None, fast_ok
        code = np.array(out_ins, dtype=np.int64)
        nxt_ins = code < 0
        return (
            np.array(out_lines, dtype=np.int64),
            nxt_ins if nxt_ins.any() else None,
            np.array(out_flags, dtype=bool),
            None if idx is None else idx[np.where(nxt_ins, ~code, code)],
            fast_ok,
        )

    def _handle_eviction(self, level_idx: int, ev: Eviction | None) -> None:
        if ev is None:
            return
        stage = self._stages[level_idx]
        is_llc = level_idx == len(self._stages) - 1
        if is_llc and self._prefetcher is not None:
            # An evicted line can no longer redeem an outstanding
            # prefetch; forgetting this inflated accuracy and let the
            # outstanding set grow without bound.
            self._prefetcher.line_evicted(ev.line)
        if is_llc and self._victim is not None:
            # L3 eviction fills the eDRAM victim cache (paper Section 2.1).
            assert self._victim_stats is not None
            displaced = self._victim.fill(ev)
            self._victim_stats.fills += 1
            if displaced is not None and displaced.dirty:
                self._victim_stats.writebacks += 1
                self._dram_stats.writebacks += 1
            return
        if ev.dirty:
            stage.stats.writebacks += 1
            if not is_llc:
                # Propagate dirtiness to the next level's copy (it was
                # installed on the walk down for recently shared lines).
                # The insert itself may displace a victim; that victim
                # takes the same path as a demand-fill eviction at that
                # level — dropping it silently lost dirty writebacks.
                displaced = self._stages[level_idx + 1].cache.insert(
                    ev.line, dirty=True
                )
                self._handle_eviction(level_idx + 1, displaced)
            else:
                self._absorb_llc_writeback(ev)

    def _absorb_llc_writeback(self, ev: Eviction) -> None:
        """Route a dirty LLC eviction toward memory (KNL shapes)."""
        if self._mcdram_cache is not None:
            assert self._mcdram_stats is not None
            if self._cacheable_by_mcdram(ev.line):
                displaced = self._mcdram_cache.insert(ev.line, dirty=True)
                self._mcdram_stats.fills += 1
                if displaced is not None and displaced.dirty:
                    self._mcdram_stats.writebacks += 1
                    self._dram_stats.writebacks += 1
                return
        if self._allocator is not None and self._node_of(ev.line) is Node.MCDRAM:
            assert self._flat_stats is not None
            self._flat_stats.writebacks += 1
        else:
            self._dram_stats.writebacks += 1

    def _node_of(self, line_addr: int) -> Node:
        assert self._allocator is not None
        return self._allocator.node_of(line_addr * self.line)

    def _cacheable_by_mcdram(self, line_addr: int) -> bool:
        """Cache-mode MCDRAM caches only DDR-backed addresses; flat-half
        addresses bypass it (hybrid mode)."""
        if self._allocator is None:
            return True
        return self._node_of(line_addr) is Node.DDR

    def _service_below(self, line_addr: int, write: bool) -> str:
        # Broadwell shape: victim eDRAM, then DDR.
        if self._victim is not None:
            assert self._victim_stats is not None
            self._victim_stats.accesses += 1
            dirty = self._victim.probe(line_addr)
            if dirty is not None:
                self._victim_stats.hits += 1
                if dirty:
                    # Promotion keeps the dirty bit in the LLC copy. The
                    # walk above already installed the line in the LLC,
                    # so this merges in place and displaces nothing; the
                    # displaced-victim routing is defensive.
                    displaced = self._stages[-1].cache.insert(
                        line_addr, dirty=True
                    )
                    self._handle_eviction(len(self._stages) - 1, displaced)
                return self._victim_stats.name
            self._victim_stats.misses += 1
            self._dram_stats.accesses += 1
            self._dram_stats.hits += 1
            return self._dram_stats.name
        # KNL shapes.
        if self._allocator is not None and self._node_of(line_addr) is Node.MCDRAM:
            assert self._flat_stats is not None
            self._flat_stats.accesses += 1
            self._flat_stats.hits += 1
            return self._flat_stats.name
        if self._mcdram_cache is not None and self._cacheable_by_mcdram(line_addr):
            assert self._mcdram_stats is not None
            self._mcdram_stats.accesses += 1
            hit, ev = self._mcdram_cache.access(line_addr, write=write)
            if ev is not None and ev.dirty:
                self._mcdram_stats.writebacks += 1
                self._dram_stats.writebacks += 1
            if hit:
                self._mcdram_stats.hits += 1
                return self._mcdram_stats.name
            self._mcdram_stats.misses += 1
            self._mcdram_stats.fills += 1
            self._dram_stats.accesses += 1
            self._dram_stats.hits += 1
            return self._dram_stats.name
        self._dram_stats.accesses += 1
        self._dram_stats.hits += 1
        return self._dram_stats.name

    def _publish_telemetry(self) -> None:
        """Push per-level and per-cache counter deltas into the registry.

        This unifies :mod:`repro.memory.stats` with the telemetry metrics:
        every ``memory.<level>.<counter>`` name carries the access/hit/
        miss/fill/writeback traffic, ``memory.<level>.cache.<counter>``
        the replacement traffic of the backing cache structure,
        ``memory.<level>.replay.*`` the events resolved ``wholesale``,
        ``walked`` or ``fast_forwarded``, and ``memory.prefetch.*`` the
        prefetcher's stats and the observations the LLC passes
        ``probed`` or ``pruned``.
        """
        if not telemetry.enabled():
            return
        for lvl in self.stats().levels:
            self._publish_delta(tm.memory_level_prefix(lvl.name), lvl.name, lvl.counters())
        for stage in self._stages:
            self._publish_delta(
                tm.memory_cache_prefix(stage.name),
                f"cache:{stage.name}",
                stage.cache.telemetry_counters(),
            )
            replay = {k: getattr(stage, k) for k in tm.MEMORY_REPLAY_COUNTERS}
            self._publish_delta(tm.memory_replay_prefix(stage.name), f"replay:{stage.name}", replay)
        if self._prefetcher is not None:
            pfs = self._prefetcher.stats
            prefetch = {"issued": pfs.issued, "useful": pfs.useful}
            self._publish_delta(tm.MEMORY_PREFETCH, "prefetch", prefetch)
            pruning = dict(
                zip(tm.MEMORY_PREFETCH_REPLAY_COUNTERS, (self.probed, self.observed - self.probed))
            )
            # A "replay:" key: reset() keeps the baseline of these
            # monotone counts, as it does the stages' replay counters.
            self._publish_delta(tm.MEMORY_PREFETCH, "replay:prefetch", pruning)

    def _publish_delta(
        self, prefix: str, key: str, totals: dict[str, int]
    ) -> None:
        prev = self._published.get(key, {})
        telemetry.record_counts(
            prefix, {k: v - prev.get(k, 0) for k, v in totals.items()}
        )
        self._published[key] = totals

    # -- results -----------------------------------------------------------

    def stats(self) -> HierarchyStats:
        levels = [s.stats for s in self._stages]
        if self._victim_stats is not None:
            levels.append(self._victim_stats)
        if self._mcdram_stats is not None:
            levels.append(self._mcdram_stats)
        if self._flat_stats is not None:
            levels.append(self._flat_stats)
        levels.append(self._dram_stats)
        return HierarchyStats(levels=levels)

    def reset(self) -> None:
        """Drop cache contents, zero all counters, forget predictor state."""
        for stage in self._stages:
            stage.cache.invalidate_all()
            stage.stats = LevelStats(name=stage.name, line=self.line)
        if self._victim is not None:
            self._victim.invalidate_all()
            self._victim_stats = LevelStats(
                name=self._victim_stats.name, line=self.line  # type: ignore[union-attr]
            )
        if self._mcdram_cache is not None:
            self._mcdram_cache.invalidate_all()
            self._mcdram_stats = LevelStats(name="MCDRAM", line=self.line)
        self._dram_stats = LevelStats(name=self._dram_stats.name, line=self.line)
        if self._flat_stats is not None:
            self._flat_stats = LevelStats(
                name=self._flat_stats.name, line=self.line
            )
        if self._prefetcher is not None:
            # Stale stride/outstanding state from a previous repetition
            # would leak prefetches (and accuracy) into the next one.
            self._prefetcher.reset()
        # Level and prefetch counters restart at zero; drop their publish
        # baselines (cache replacement and replay counters survive).
        keep = ("cache:", "replay:")
        self._published = {k: v for k, v in self._published.items() if k.startswith(keep)}
        # Close the previous epoch's dirty-flow books (the invalidations
        # above consumed its resident dirty lines) and start fresh.
        self._ledger_base = {
            name: dict(cache.dirty_flows())
            for name, cache in self._dirty_caches()
        }

    # -- writeback conservation --------------------------------------------

    def _dirty_caches(self) -> list[tuple[str, SetAssociativeCache]]:
        caches = [(s.name, s.cache) for s in self._stages]
        if self._victim is not None:
            assert self._victim_stats is not None
            caches.append((self._victim_stats.name, self._victim.cache))
        if self._mcdram_cache is not None:
            caches.append(("MCDRAM", self._mcdram_cache))
        return caches

    def dirty_ledger(self) -> dict[str, dict[str, int]]:
        """Per-cache dirty-line flow counters for the current epoch.

        An epoch starts at construction or :meth:`reset`; the underlying
        cache counters stay monotone for telemetry, so the ledger
        subtracts the baseline captured at the last reset.
        """
        ledger: dict[str, dict[str, int]] = {}
        for name, cache in self._dirty_caches():
            flows = cache.dirty_flows()
            base = self._ledger_base.get(name)
            if base:
                flows = {k: v - base.get(k, 0) for k, v in flows.items()}
            ledger[name] = flows
        return ledger

    def memory_writebacks(self) -> int:
        """Dirty lines that arrived at memory (DRAM plus flat MCDRAM)."""
        total = self._dram_stats.writebacks
        if self._flat_stats is not None:
            total += self._flat_stats.writebacks
        return total

    def conservation_violations(self) -> list[str]:
        """Audit writeback conservation; an empty list means books close.

        Two laws that must hold for ANY trace on ANY platform shape:

        * per cache: dirty lines created by writes plus dirty lines
          received from above equal those still resident plus those
          evicted dirty, extracted (victim promotion), or invalidated
          (a merge coalesces the *arriving* line — booked as the
          sender's out-flow — without minting a new entry here);
        * across the hierarchy: every dirty line leaving a cache (dirty
          eviction or extraction) arrives somewhere — another cache
          (received/merged) or memory (writebacks counted at DRAM/flat).

        The historical bugs this guards against: dirtiness-propagation
        inserts and prefetch fills displacing dirty victims that were
        silently dropped (lines left a cache and arrived nowhere).
        """
        ledger = self.dirty_ledger()
        violations = []
        for name, f in ledger.items():
            lhs = f["created"] + f["received"]
            rhs = (
                f["resident_dirty"]
                + f["dirty_evictions"]
                + f["extracted"]
                + f["invalidated"]
            )
            if lhs != rhs:
                violations.append(
                    f"{name}: created+received={lhs} != accounted={rhs} ({f})"
                )
        out_flow = sum(
            f["dirty_evictions"] + f["extracted"] for f in ledger.values()
        )
        in_flow = sum(f["received"] + f["merged"] for f in ledger.values())
        mem = self.memory_writebacks()
        if out_flow != in_flow + mem:
            violations.append(
                f"hierarchy: dirty out-flow {out_flow} != "
                f"in-flow {in_flow} + memory writebacks {mem}"
            )
        return violations


def _coerce_chunk(
    addrs: np.ndarray,
    writes: np.ndarray | bool | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize one (addrs, writes) chunk to ndarrays.

    Returns ``(int64 line addresses, bool write mask)``. Everything a
    caller can get wrong is rejected here with a ``ValueError`` naming
    the offending element (mirroring the mmio parser's line-numbered
    errors) so a bad trace fails loudly at the boundary instead of
    corrupting set indexing deep in the replay:

    * 2-D (or 0-D) ``addrs``,
    * non-integer ``addrs`` dtypes (floats truncate silently),
    * negative line addresses (``addr & mask`` would alias a valid set),
    * ``writes`` whose shape does not match ``addrs``,
    * non-bool / non-integer ``writes`` dtypes.
    """
    arr = np.asarray(addrs)
    if arr.ndim != 1:
        raise ValueError(
            f"addrs must be a 1-D array of line addresses, got shape {arr.shape}"
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"addrs must be integer line addresses, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    n = arr.shape[0]
    if n and int(arr.min()) < 0:
        first = int(np.flatnonzero(arr < 0)[0])
        raise ValueError(
            f"addrs[{first}] = {int(arr[first])}: "
            "line addresses must be non-negative"
        )
    if writes is None:
        warr = np.zeros(n, dtype=bool)
    elif isinstance(writes, (bool, np.bool_)):
        warr = np.full(n, bool(writes), dtype=bool)
    else:
        warr = np.asarray(writes)
        if warr.shape != arr.shape:
            raise ValueError(
                f"writes shape {warr.shape} does not match addrs {arr.shape}"
            )
        if warr.dtype != np.bool_:
            if not np.issubdtype(warr.dtype, np.integer):
                raise ValueError(
                    f"writes must be bool (or 0/1 integers), got dtype {warr.dtype}"
                )
            warr = warr.astype(bool)
    return arr, warr


class _Recording:
    """The first repetition of a repeated replay, sub-block by sub-block.

    ``blocks`` holds, per sub-block, its references and write bits, the
    residue the levels above the LLC handed the LLC passes (``lines, ins,
    flags, idx``), and, at checkpoints, the receiver's
    :meth:`~Hierarchy._interior_state` at the block's start (None
    elsewhere). Checkpoints lie at least as many references apart as the
    levels above the LLC hold lines, and never closer than
    ``_BLOCK_MIN``, so snapshotting costs time and memory linear in the
    trace. ``end`` and ``end_sets`` are the state and contents there at
    the end of the repetition.
    """

    def __init__(self, receiver: Hierarchy) -> None:
        self.blocks: list[tuple] = []
        self.spacing = max(
            _BLOCK_MIN, sum(st.cache.n_sets * st.cache.ways for st in receiver._stages[:-1])
        )
        self._gap = self.spacing  # references since the last checkpoint
        self.end: tuple = ()
        self.end_sets: list = []

    def checkpoint(self, receiver: Hierarchy) -> tuple | None:
        """The receiver's state, if a checkpoint is due at the start of
        the next block."""
        if self._gap < self.spacing:
            return None
        self._gap = 0
        return receiver._interior_state()

    def add(self, refs: np.ndarray, writes: np.ndarray, residue: tuple, state: tuple | None) -> None:
        self.blocks.append((refs, writes, residue, state))
        self._gap += refs.shape[0]

    def close(self, receiver: Hierarchy) -> None:
        """Record the state and contents the repetition ends with."""
        self.end = receiver._interior_state()
        self.end_sets = [
            {k: dict(s) for k, s in st.cache._sets.items() if s} for st in receiver._stages[:-1]
        ]


def _check_group(group: tuple[Hierarchy, ...]) -> None:
    """Reject a replay group whose members cannot share the levels
    above the LLC; raises before any member is touched."""
    if len({id(h) for h in group}) != len(group):
        raise ValueError("a replay group lists one hierarchy twice")
    receiver, *others = group
    for h in others:
        if h._interior_shape() != receiver._interior_shape():
            raise ValueError(
                "replay group members differ above the LLC: (line, levels, "
                f"[(sets, ways, line)]) {h._interior_shape()} vs {receiver._interior_shape()}"
            )
        if h._interior_image() != receiver._interior_image():
            raise ValueError("replay group members start with different contents above the LLC")


def _observation_stream(refs, strides, live, lines, ins, flags, idx):
    """Merge a block's ``live`` prefetch observations into its LLC event
    stream.

    ``access()`` runs reference k's observation after every LLC event of
    reference k-1 and before every one of its own, so event e with
    origin o goes to slot e + (live observations up to o) and the live
    observations fill the rest. Returns ``(lines, kinds, flags)``: kind
    0 is an access, 1 a dirty-victim insert, :data:`_OBSERVE` an
    observation (flag: its stride).
    """
    upto = np.cumsum(live)
    total = int(upto[-1]) + (0 if lines is None else lines.shape[0])
    kinds = np.full(total, _OBSERVE, dtype=np.int8)
    addrs = np.empty(total, dtype=np.int64)
    fl = np.empty(total, dtype=object)
    obs = np.ones(total, dtype=bool)
    if lines is not None:
        pos = np.arange(lines.shape[0]) + upto[idx]
        obs[pos] = False
        kinds[pos] = 0 if ins is None else ins
        addrs[pos] = lines
        fl[pos] = flags.tolist()
    addrs[obs] = refs[live]
    fl[obs] = strides[live].tolist()
    return addrs, kinds, fl


def _batches(items: Iterable) -> Iterator[list]:
    """Consecutive lists of up to ``CHUNK`` items."""
    it = iter(items)
    while batch := list(islice(it, CHUNK)):
        yield batch


# -- builders ---------------------------------------------------------------


def _cache_stages(machine: MachineSpec, *, scale: float = 1.0) -> list[_CacheStage]:
    """Instantiate the on-chip levels of ``machine``.

    ``scale`` shrinks every capacity by a constant factor so that small,
    fast-to-simulate traces exercise the same *ratios* as the real machine
    (a standard scaled-down simulation technique); 1.0 keeps true sizes.
    It must lie in (0, 1]: a larger one would model a different machine.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if not scale <= 1:
        raise ValueError(f"scale must be <= 1, got {scale}")
    stages = []
    for lvl in machine.caches:
        assert lvl.capacity is not None
        cap = max(lvl.line * (lvl.ways or 8), int(lvl.capacity * scale))
        cache = SetAssociativeCache(cap, line=lvl.line, ways=lvl.ways or 8)
        stages.append(_CacheStage(lvl.name, cache))
    return stages


def for_broadwell(
    machine: MachineSpec,
    *,
    edram: bool | EdramMode = True,
    scale: float = 1.0,
    prefetch: str | None = None,
) -> Hierarchy:
    """Build the Broadwell-shaped hierarchy (optionally without eDRAM)."""
    if isinstance(edram, EdramMode):
        edram = edram.enabled
    stages = _cache_stages(machine, scale=scale)
    victim = None
    if edram and machine.opm is not None:
        assert machine.opm.capacity is not None
        cap = max(
            machine.opm.line * (machine.opm.ways or 16),
            int(machine.opm.capacity * scale),
        )
        victim = VictimCache(cap, line=machine.opm.line, ways=machine.opm.ways or 16)
    return Hierarchy(
        stages,
        line=machine.dram.line,
        victim=victim,
        victim_name=machine.opm.name if machine.opm else "eDRAM",
        memory_names=(machine.dram.name, "unused"),
        prefetcher=_make_prefetcher(prefetch, stages),
    )


def for_knl(
    machine: MachineSpec,
    mode: McdramMode,
    *,
    allocator: NumaAllocator | None = None,
    scale: float = 1.0,
) -> Hierarchy:
    """Build the KNL-shaped hierarchy for one MCDRAM mode.

    ``allocator`` carries flat/hybrid placements; when omitted one is
    created with the mode's flat capacity (callers then allocate arrays
    through ``hierarchy_allocator(h)``).
    """
    if machine.opm is None:
        raise ValueError("KNL machine spec must include MCDRAM")
    stages = _cache_stages(machine, scale=scale)
    config = McdramConfig.from_spec(machine.opm, mode)
    mcdram_cache = None
    if config.uses_cache:
        ways = machine.opm.ways or 1  # MCDRAM: 1 (direct-mapped)
        cap = max(machine.opm.line * ways, int(config.cache_bytes * scale))
        mcdram_cache = SetAssociativeCache(cap, line=machine.opm.line, ways=ways)
    if allocator is None and config.uses_flat:
        assert machine.dram.capacity is not None
        allocator = NumaAllocator(
            int(config.flat_bytes * scale),
            machine.dram.capacity,
            prefer_mcdram=True,
        )
    return Hierarchy(
        stages,
        line=machine.dram.line,
        mcdram_cache=mcdram_cache,
        allocator=allocator,
        memory_names=(machine.dram.name, "MCDRAM-flat"),
    )


def _make_prefetcher(kind: str | None, stages: list[_CacheStage]):
    """Instantiate an optional prefetcher targeting the deepest on-chip
    cache ('next-line' or 'stride'); None disables prefetching."""
    if kind is None:
        return None
    from repro.memory.prefetch import NextLinePrefetcher, StridePrefetcher

    target = stages[-1].cache
    if kind == "next-line":
        return NextLinePrefetcher(target)
    if kind == "stride":
        return StridePrefetcher(target)
    raise ValueError(f"unknown prefetcher kind {kind!r}")


def hierarchy_allocator(hierarchy: Hierarchy) -> NumaAllocator | None:
    """Expose the NUMA allocator of a flat/hybrid KNL hierarchy."""
    return hierarchy._allocator
