"""Sampled stack-distance estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import sampled_stack_distances, stack_distances


class TestSampledStackDistances:
    def test_exact_when_period_one_and_big_window(self):
        trace = ([0, 1, 2, 3] * 50)
        exact = stack_distances(trace)
        sampled = sampled_stack_distances([trace], window=len(trace), period=1)
        assert sampled.hit_rate(4) == pytest.approx(exact.hit_rate(4))
        assert sampled.n_windows == 1

    def test_small_working_set_estimated_accurately(self):
        """Reuse far below the window size survives sampling; the only
        bias is the documented censoring (window-start cold misses)."""
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 64, size=40_000).tolist()
        exact = stack_distances(trace)
        sampled = sampled_stack_distances([trace], window=1024, period=4)
        for cap in (8, 32, 64, 128):
            tolerance = sampled.censored_fraction + 0.02
            assert sampled.hit_rate(cap) == pytest.approx(
                exact.hit_rate(cap), abs=tolerance
            )
            # Conservative direction: sampling never overestimates hits
            # by more than the sampling noise.
            assert sampled.hit_rate(cap) <= exact.hit_rate(cap) + 0.02

    def test_censoring_reported(self):
        # Reuse distance ~2000 >> window 256: everything censored.
        trace = list(range(2000)) * 3
        sampled = sampled_stack_distances([trace], window=256, period=1)
        assert sampled.censored_fraction > 0.9
        # Censored reuse counts as miss: conservative lower bound.
        assert sampled.hit_rate(4096) <= stack_distances(trace).hit_rate(4096)

    def test_sampling_reduces_work(self):
        trace = list(range(100)) * 40
        sampled = sampled_stack_distances([trace], window=200, period=5)
        assert sampled.n_windows < (len(trace) // 200)
        assert sampled.n_windows >= 1

    def test_tail_window_analyzed_when_nothing_else(self):
        sampled = sampled_stack_distances([[1, 2, 1]], window=10, period=3)
        assert sampled.n_windows == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sampled_stack_distances([[1]], window=1)
        with pytest.raises(ValueError):
            sampled_stack_distances([[1]], period=0)

    def test_deterministic(self):
        trace = list(np.random.default_rng(1).integers(0, 50, size=5000))
        a = sampled_stack_distances([trace], window=500, period=3, seed=7)
        b = sampled_stack_distances([trace], window=500, period=3, seed=7)
        assert a.n_windows == b.n_windows
        assert a.hit_rate(32) == b.hit_rate(32)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 2000),
        span=st.integers(1, 200),
        window=st.integers(2, 300),
        period=st.integers(1, 6),
        seed=st.integers(0, 50),
    )
    def test_censored_books_close(self, n, span, window, period, seed):
        """The censored count is exactly the cold count of the merged
        sample — each reference's cold marker is booked once, never
        twice (the historical three absorb sites made this unauditable).
        With period=1 every reference is sampled, so the total equals
        the trace length and censored_fraction is n_cold/n exactly."""
        trace = np.random.default_rng(seed).integers(0, span, size=n)
        prof = sampled_stack_distances(
            [trace], window=window, period=period, seed=seed
        )
        assert prof.profile.n_cold == int((prof.profile.distances < 0).sum())
        total = (
            prof.profile.n_references
        )  # all sampled references survive into the merged profile
        if total:
            assert prof.censored_fraction == prof.profile.n_cold / total
        else:
            assert prof.censored_fraction == 0.0
        if period == 1 and n:
            assert total == n

    def test_censored_fraction_matches_exact_on_canonical_streams(self):
        """period=1 with the window covering the whole trace = the exact
        computation: same distances, and censored == the exact profile's
        cold count."""
        for trace in (
            [0, 1, 2, 3] * 100,
            list(range(300)) * 2,
            np.random.default_rng(2).integers(0, 40, size=1500).tolist(),
        ):
            exact = stack_distances(trace)
            sampled = sampled_stack_distances(
                [trace], window=len(trace), period=1
            )
            assert sampled.profile.distances.tolist() == exact.distances.tolist()
            assert sampled.censored_fraction == pytest.approx(
                exact.n_cold / exact.n_references
            )


class TestSampledStream:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 3000),
        span=st.integers(1, 150),
        window=st.integers(2, 500),
        period=st.integers(1, 5),
        seed=st.integers(0, 30),
        chunk=st.integers(1, 700),
    )
    def test_stream_equals_batch(self, n, span, window, period, seed, chunk):
        """Chunk boundaries are invisible: streaming any chunking of the
        trace reproduces the single-array estimate exactly."""
        arr = np.random.default_rng(seed).integers(0, span, size=n)
        whole = sampled_stack_distances(
            [arr], window=window, period=period, seed=seed
        )
        chunks = [arr[i : i + chunk] for i in range(0, n, chunk)]
        streamed = sampled_stack_distances(
            chunks, window=window, period=period, seed=seed
        )
        assert streamed.n_windows == whole.n_windows
        assert streamed.censored_fraction == whole.censored_fraction
        assert (
            streamed.profile.distances.tolist()
            == whole.profile.distances.tolist()
        )

    def test_accepts_addr_write_pairs(self):
        arr = np.arange(100, dtype=np.int64) % 7
        pairs = [
            (arr[:40], np.zeros(40, dtype=bool)),
            (arr[40:], np.zeros(60, dtype=bool)),
        ]
        a = sampled_stack_distances(pairs, window=25, period=1)
        b = sampled_stack_distances([arr], window=25, period=1)
        assert a.profile.distances.tolist() == b.profile.distances.tolist()

    def test_bare_array_is_not_a_chunk_stream(self):
        """A whole trace is one chunk, ``[trace]``; the trace itself is
        refused rather than read one reference at a time."""
        arr = np.arange(100, dtype=np.int64) % 7
        with pytest.raises(ValueError, match="1-D"):
            sampled_stack_distances(arr, window=25, period=1)
        with pytest.raises(ValueError, match="1-D"):
            sampled_stack_distances(arr.tolist(), window=25, period=1)

    def test_empty_stream(self):
        prof = sampled_stack_distances([], window=16, period=2)
        assert prof.n_windows == 0
        assert prof.censored_fraction == 0.0
        assert prof.profile.distances.size == 0
