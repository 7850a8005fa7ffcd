"""Exact and sampled LRU stack-distance (reuse-distance) computation.

The stack distance of a reference is the number of *distinct* lines
touched since the previous reference to the same line (infinite for cold
references). A fully associative LRU cache of C lines hits exactly the
references with stack distance < C, so the stack-distance histogram is the
bridge between traces and the analytic hit-rate model
(:mod:`repro.engine.hitrate`).

Implemented with a Fenwick (binary indexed) tree over last-access
timestamps: O(N log N) for a trace of N references. The trace is one
1-D array (lists and string keys go through ``np.asarray``), and the
previous-occurrence indices the Fenwick loop consumes are computed fully
vectorized.

The per-timestamp ``add(t, +1)`` of the textbook algorithm is replaced by
a closed-form preload of the all-ones tree (``tree[i] = i & -i``). That
is exact, not an approximation: a Fenwick node ``i`` only aggregates
positions ``<= i``, and ``prefix(i)`` only reads nodes ``<= i``, so the
+1 units preloaded at future timestamps are invisible to every query
issued before their time arrives; removals happen in the same order as
the incremental algorithm.

For the longest traces, :func:`sampled_stack_distances` estimates the
curve from a systematic sample of windows, each computed exactly;
``tests/test_reservoir.py`` quantifies its error on canonical streams.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np


@dataclasses.dataclass
class StackDistanceProfile:
    """Histogram of stack distances for one trace.

    ``distances`` holds one entry per reference: the stack distance, with
    ``-1`` marking cold (first-touch) references.
    """

    distances: np.ndarray

    @property
    def n_references(self) -> int:
        return len(self.distances)

    @property
    def n_cold(self) -> int:
        return int(np.count_nonzero(self.distances < 0))

    def hit_rate(self, capacity_lines: int) -> float:
        """Hit rate of a fully associative LRU cache with that capacity."""
        if self.n_references == 0:
            return 0.0
        hits = np.count_nonzero(
            (self.distances >= 0) & (self.distances < capacity_lines)
        )
        return float(hits) / self.n_references

    def cdf(self, capacities: Iterable[int]) -> np.ndarray:
        """Hit rates for several capacities at once."""
        return np.array([self.hit_rate(c) for c in capacities])

    def histogram(self, bins: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Log-spaced histogram of finite distances (counts, edges)."""
        finite = self.distances[self.distances >= 0]
        if len(finite) == 0:
            return np.zeros(bins), np.ones(bins + 1)
        hi = max(2, int(finite.max()) + 1)
        edges = np.unique(
            np.round(np.logspace(0, np.log2(hi), bins + 1, base=2.0)).astype(np.int64)
        )
        counts, edges = np.histogram(finite, bins=edges)
        return counts, edges


def _prev_occurrence_vectorized(arr: np.ndarray) -> list[int]:
    """Previous-occurrence index per reference (-1 for first touch).

    Grouping by line via ``np.unique`` + stable argsort keeps each line's
    timestamps in trace order, so "the previous element of my group" is
    exactly the previous occurrence.
    """
    n = arr.shape[0]
    inv = np.unique(arr, return_inverse=True)[1]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = np.where(
        inv_sorted[1:] == inv_sorted[:-1], order[:-1], -1
    )
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev.tolist()


def _fenwick_distances(prev: list[int], n: int) -> np.ndarray:
    """Stack distances from previous-occurrence indices.

    The tree starts as the closed-form all-ones Fenwick (every timestamp
    alive); each reuse removes its previous occurrence after querying the
    count of alive timestamps strictly between the pair. A plain Python
    list beats an int64 ndarray here: the loop does scalar index
    arithmetic, where numpy scalar boxing costs more than it saves.
    """
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    idx = np.arange(1, n + 1, dtype=np.int64)
    tree = np.concatenate((np.zeros(1, dtype=np.int64), idx & -idx)).tolist()
    size = n + 1
    for t in range(n):
        p = prev[t]
        if p < 0:
            out[t] = -1
            continue
        # Distinct lines referenced in (p, t): alive timestamps after p.
        total = 0
        i = t
        while i > 0:
            total += tree[i]
            i -= i & -i
        i = p + 1
        while i > 0:
            total -= tree[i]
            i -= i & -i
        out[t] = total
        i = p + 1
        while i < size:
            tree[i] -= 1
            i += i & -i
    return out


def _as_trace(line_trace) -> np.ndarray:
    """``line_trace`` as a 1-D array; anything else raises ValueError."""
    arr = np.asarray(line_trace)
    if arr.ndim != 1:
        raise ValueError("line trace must be a 1-D array of line keys")
    return arr


def stack_distances(line_trace: np.ndarray | Sequence) -> StackDistanceProfile:
    """Compute per-reference LRU stack distances for a line-address trace.

    ``line_trace`` is a 1-D array of line keys, or anything ``np.asarray``
    turns into one (a list of ints or strings); keys that do not make a
    1-D array, such as tuples, raise ``ValueError``.
    """
    arr = _as_trace(line_trace)
    n = arr.shape[0]
    prev = _prev_occurrence_vectorized(arr) if n else []
    return StackDistanceProfile(distances=_fenwick_distances(prev, n))


@dataclasses.dataclass(frozen=True)
class SampledProfile:
    """Stack-distance estimate from sampled windows.

    ``censored_fraction`` is the share of sampled references whose reuse
    distance exceeded the window (they may be hits in very large caches;
    the estimator counts them as misses, making `hit_rate` a *lower
    bound* above the window working set).
    """

    profile: StackDistanceProfile
    window: int
    n_windows: int
    censored_fraction: float

    def hit_rate(self, capacity_lines: int) -> float:
        return self.profile.hit_rate(capacity_lines)


class WindowSampler:
    """Systematic one-in-``period`` window sampler over a reference stream.

    The core of :func:`sampled_stack_distances`; the validation harness
    drives it directly to tee one chunk stream into the simulator and the
    estimator. It keeps the exact distances of every sampled window, 8 B
    per sampled reference, plus the pieces of one partial window. Its
    ``censored_fraction`` is the cold share of those distances, so no
    separate books can drift from them.
    """

    def __init__(self, window: int, period: int, seed: int) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.window = window
        self.period = period
        rng = np.random.default_rng(seed)
        self._offset = int(rng.integers(0, period))
        self._index = 0  # completed windows so far (selected or not)
        self._distances: list[np.ndarray] = []  # one per sampled window
        # Partial-window pieces carried across push() chunk boundaries.
        self._parts: list[np.ndarray] = []
        self._buffered = 0

    def _complete(self, refs: np.ndarray) -> None:
        """Finish one full window: analyze it if systematically selected."""
        if self._index % self.period == self._offset:
            self._distances.append(stack_distances(refs).distances)
        self._index += 1

    def push(self, chunk: np.ndarray) -> None:
        """Stream one 1-D chunk; windows are sliced, never copied,
        except where one straddles a chunk boundary."""
        chunk = _as_trace(chunk)
        w = self.window
        n = chunk.shape[0]
        pos = 0
        if self._buffered:
            take = min(w - self._buffered, n)
            self._parts.append(chunk[:take])
            self._buffered += take
            pos = take
            if self._buffered == w:
                self._complete(np.concatenate(self._parts))
                self._parts = []
                self._buffered = 0
        while pos + w <= n:
            self._complete(chunk[pos : pos + w])
            pos += w
        if pos < n:
            self._parts.append(chunk[pos:])
            self._buffered += n - pos

    def finish(self) -> SampledProfile:
        """The estimate so far. The final partial window is kept if its
        slot is selected, or if nothing was sampled at all (short traces
        must not yield an empty estimate)."""
        if self._buffered and (
            self._index % self.period == self._offset or not self._distances
        ):
            tail = np.concatenate(self._parts)
            self._distances.append(stack_distances(tail).distances)
        self._parts = []
        self._buffered = 0
        merged = StackDistanceProfile(
            distances=np.concatenate(self._distances)
            if self._distances
            else np.empty(0, dtype=np.int64)
        )
        n = merged.n_references
        return SampledProfile(
            profile=merged,
            window=self.window,
            n_windows=len(self._distances),
            censored_fraction=merged.n_cold / n if n else 0.0,
        )


def sampled_stack_distances(
    chunks: Iterable[np.ndarray | tuple[np.ndarray, np.ndarray]],
    *,
    window: int = 4096,
    period: int = 4,
    seed: int = 0,
) -> SampledProfile:
    """Estimate the stack-distance curve from every ``period``-th window.

    ``chunks`` yields 1-D line-address arrays, or ``(addrs, writes)``
    pairs as :func:`~repro.trace.batch.chunk_arrays` and
    :func:`~repro.kernels.traces.kernel_trace_chunks` make them; a whole
    trace is one chunk, ``[trace]`` (a bare trace raises ``ValueError``).

    The stream is cut into consecutive windows of ``window`` references,
    whatever the chunk boundaries, and a deterministic systematic sample
    (offset seeded) of one-in-``period`` windows is analyzed exactly.
    Cold references at window starts are censored (distance unknown
    beyond the window), tracked in ``censored_fraction``.
    """
    sampler = WindowSampler(window, period, seed)
    for chunk in chunks:
        sampler.push(chunk[0] if isinstance(chunk, tuple) else chunk)
    return sampler.finish()
