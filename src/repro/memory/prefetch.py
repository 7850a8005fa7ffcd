"""Hardware prefetcher models for the trace-driven simulator.

The analytic engine's MLP story (valley model, SpTRSV inversion) rests on
how much latency the memory system can hide; on real parts the hardware
prefetchers supply much of that concurrency. This module adds the two
classic designs to the exact simulator so their effect is measurable
rather than assumed:

* :class:`NextLinePrefetcher` — on access to line L, prefetch L+1..L+D.
* :class:`StridePrefetcher` — per-PC-less stride table: detects constant
  strides in the global reference stream and runs ahead of them.

Both observe every core reference and insert into the hierarchy's
last-level on-chip cache (``repro.memory.hierarchy._make_prefetcher``).
``observe`` is the scalar reference; the batched replay takes a whole
block's issue decisions from ``issue_strides`` and probes the candidates
itself. Prefetches are issued via ``insert`` (no reference counted) and
tracked for accuracy statistics: *useful* prefetches are those whose
line is touched before eviction.

A prefetch fill can displace a victim from the target cache. The
displaced :class:`~repro.memory.cache.Eviction` is forwarded to the
``on_evict`` sink (the hierarchy wires this to its normal LLC eviction
handling) so dirty lines keep flowing to the victim cache / memory
instead of silently vanishing. Symmetrically, the hierarchy reports
demand-fill evictions from the target cache back via
:meth:`line_evicted`, which drops the line from the outstanding-prefetch
set — a later demand miss on an already-evicted prefetch must count as
wasted, not useful.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.memory.cache import Eviction, SetAssociativeCache


@dataclasses.dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0

    @property
    def accuracy(self) -> float:
        return self.useful / self.issued if self.issued else 0.0


class _PrefetcherBase:
    """Shared issue/track/evict plumbing for the concrete designs."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        self.stats = PrefetchStats()
        self._outstanding: set[int] = set()
        #: Sink for victims displaced by prefetch fills; the hierarchy
        #: routes these through its regular LLC eviction handling.
        self.on_evict: Callable[[Eviction], None] | None = None

    def _record_demand(self, line_addr: int) -> None:
        """Score a demand access against the outstanding-prefetch set."""
        if line_addr in self._outstanding:
            self.stats.useful += 1
            self._outstanding.discard(line_addr)

    def _install(self, target: int) -> None:
        """Insert one prefetched line, forwarding any displaced victim."""
        ev = self.cache.insert(target)
        self._outstanding.add(target)
        self.stats.issued += 1
        if ev is not None:
            # The displaced line may itself be an untouched prefetch.
            self._outstanding.discard(ev.line)
            if self.on_evict is not None:
                self.on_evict(ev)

    def _candidates(self, lines: np.ndarray, strides: np.ndarray) -> np.ndarray:
        """The distinct lines that observing ``lines`` at issue ``strides``
        may prefetch."""
        on = strides != 0
        return np.unique(lines[on, None] + strides[on, None] * np.arange(1, self.degree + 1))

    def idle(self, lines: np.ndarray, strides: np.ndarray) -> bool:
        """Whether observing ``lines`` alone would change nothing: none
        is outstanding and every candidate is already cached."""
        return self._outstanding.isdisjoint(np.unique(lines).tolist()) and all(
            t < 0 or t in self.cache for t in self._candidates(lines, strides).tolist()
        )

    def live(self, lines: np.ndarray, strides: np.ndarray) -> np.ndarray:
        """Which observations of ``lines`` may change anything. A zero-
        stride one can only score a useful prefetch, so it is dead unless
        its line is outstanding now or a candidate of an issuing one."""
        on = strides != 0
        if on.all():
            return on
        pending = np.fromiter(self._outstanding, dtype=np.int64, count=len(self._outstanding))
        return on | np.isin(lines, np.concatenate([pending, self._candidates(lines, strides)]))

    def line_evicted(self, line_addr: int) -> None:
        """Notify that the target cache evicted ``line_addr``.

        Keeps the outstanding set honest (and bounded by the cache's
        capacity): an evicted prefetch can no longer become useful.
        """
        self._outstanding.discard(line_addr)

    def reset(self) -> None:
        """Zero statistics and forget all predictor/outstanding state."""
        self.stats = PrefetchStats()
        self._outstanding.clear()


class NextLinePrefetcher(_PrefetcherBase):
    """Sequential prefetcher with configurable degree."""

    def __init__(self, cache: SetAssociativeCache, *, degree: int = 2) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        super().__init__(cache)
        self.degree = degree

    def issue_strides(self, lines: np.ndarray) -> np.ndarray:
        """Per-reference issue strides of :meth:`observe`: always 1."""
        return np.ones(lines.shape[0], dtype=np.int64)

    def observe(self, line_addr: int) -> list[int]:
        """Notify of a demand access; returns lines prefetched now."""
        self._record_demand(line_addr)
        issued = []
        for d in range(1, self.degree + 1):
            target = line_addr + d
            if target in self.cache or target in self._outstanding:
                continue
            self._install(target)
            issued.append(target)
        return issued


class StridePrefetcher(_PrefetcherBase):
    """Global-stream stride detector with run-ahead.

    Tracks the last address and last stride; after ``confirm`` identical
    strides it prefetches ``degree`` lines ahead along the stride. Covers
    the strided column scans of SpTRANS and the pencil walks of the FFT
    that a next-line prefetcher misses.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        *,
        degree: int = 4,
        confirm: int = 2,
    ) -> None:
        if degree < 1 or confirm < 1:
            raise ValueError("degree and confirm must be >= 1")
        super().__init__(cache)
        self.degree = degree
        self.confirm = confirm
        self._last_addr: int | None = None
        self._last_stride: int = 0
        self._streak: int = 0

    def observe(self, line_addr: int) -> list[int]:
        """Notify of a demand access; returns lines prefetched now."""
        self._record_demand(line_addr)
        issued: list[int] = []
        if self._last_addr is not None:
            stride = line_addr - self._last_addr
            if stride != 0 and stride == self._last_stride:
                self._streak += 1
            else:
                self._streak = 1 if stride != 0 else 0
                self._last_stride = stride
            if stride != 0 and self._streak >= self.confirm:
                for d in range(1, self.degree + 1):
                    target = line_addr + stride * d
                    if target < 0 or target in self.cache or target in self._outstanding:
                        continue
                    self._install(target)
                    issued.append(target)
        self._last_addr = line_addr
        return issued

    def issue_strides(self, lines: np.ndarray) -> np.ndarray:
        """Per-reference issue strides (0 = none) of :meth:`observe`.

        Advances the predictor as observing ``lines`` one at a time
        would; probing the candidates is left to the caller.
        """
        if lines.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        # A first reference (no last address) acts as a zero stride.
        prev = lines[0] if self._last_addr is None else self._last_addr
        stride = np.diff(lines, prepend=prev)
        # Run of equal strides ending at each reference, counting the
        # self._streak-long run carried over from the last call.
        k = np.arange(lines.shape[0])
        new = np.r_[stride[0] != self._last_stride, stride[1:] != stride[:-1]]
        run = k - np.maximum.accumulate(np.where(new, k - 1, -1 - self._streak))
        streak = np.where(stride != 0, run, 0)
        self._last_addr = int(lines[-1])
        self._last_stride = int(stride[-1])
        self._streak = int(streak[-1])
        return np.where(streak >= self.confirm, stride, 0)

    def reset(self) -> None:
        super().reset()
        self._last_addr = None
        self._last_stride = 0
        self._streak = 0
