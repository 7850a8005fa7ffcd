"""Extension study: hardware prefetching under the kernel access patterns.

The analytic engine's latency story assumes the memory system extracts
concurrency from the access stream; on real parts the L2/LLC prefetchers
do much of that work. This experiment drives the *exact* simulator with
the instrumented kernel traces (:mod:`repro.kernels.traces`) under no
prefetching, next-line, and stride prefetching, and reports LLC hit rate,
DRAM traffic, and prefetch accuracy per kernel. The three configurations
of a kernel replay one trace as a group (``Hierarchy.run_batched`` with
``also=``): the levels above the LLC, which no prefetcher touches, run
once, and each configuration runs its own LLC and memory on what they
leave over.

Expected shape: streaming kernels (STREAM, stencil planes) are covered by
next-line; SpMV's x-gathers are covered by neither (the gather stream has
no stride) — which is exactly why SpMV stays bandwidth/latency-bound and
benefits from OPM capacity rather than prefetch.
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.kernels import GemmKernel, SpmvKernel, StencilKernel, StreamKernel
from repro.kernels.traces import kernel_trace_chunks
from repro.memory import for_broadwell
from repro.platforms import broadwell
from repro.sparse import generators

PREFETCHERS = (None, "next-line", "stride")


def _workloads(quick: bool):
    scale = 1 if quick else 2
    return {
        "stream": StreamKernel(n=6000 * scale),
        "gemm": GemmKernel(order=48 * scale, tile=16),
        "spmv-random": SpmvKernel.from_matrix(
            generators.random_uniform(600 * scale, 9000 * scale, seed=1)
        ),
        "spmv-banded": SpmvKernel.from_matrix(
            generators.banded(600 * scale, 9000 * scale, seed=1)
        ),
        "stencil": StencilKernel(20 * scale, 20, 20),
    }


@register("ext4", "Prefetching under kernel access patterns", "Extension (MLP substrate)")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ext4",
        title="Prefetcher coverage on exact kernel traces (Broadwell shape)",
    )
    machine = broadwell()
    rows = []
    for name, kernel in _workloads(quick).items():
        hs = {kind: for_broadwell(machine, scale=0.001, prefetch=kind) for kind in PREFETCHERS}
        # One trace, one L1/L2 replay: prefetchers only act at the LLC,
        # so the three configurations share every level above it. The
        # second repetition stops replaying L1/L2 once they repeat the
        # first. A prefetching hierarchy leads, so perfbench/layers.py
        # books the group's replay under memory.replay_prefetch.
        hs["next-line"].run_batched(
            kernel_trace_chunks(kernel), also=(hs[None], hs["stride"]), reps=2
        )
        for kind, h in hs.items():
            stats = h.stats()
            pf = h._prefetcher
            rows.append(
                (
                    name,
                    kind or "none",
                    stats["L3"].hit_rate,
                    stats["DDR3"].accesses,
                    pf.stats.accuracy if pf is not None else float("nan"),
                )
            )
    result.add_table(
        "coverage",
        ("kernel", "prefetcher", "llc_hit_rate", "dram_reads", "pf_accuracy"),
        rows,
    )
    by = {(r[0], r[1]): r for r in rows}
    stream_gain = (
        by[("stream", "next-line")][2] - by[("stream", "none")][2]
    )
    spmv_gain = (
        by[("spmv-random", "next-line")][2] - by[("spmv-random", "none")][2]
    )
    result.notes.append(
        f"Next-line prefetch lifts STREAM's LLC hit rate by "
        f"{stream_gain:+.2f} but SpMV(random) by only {spmv_gain:+.2f} — "
        "irregular gathers defeat prefetching, which is why OPM *capacity* "
        "(not prefetch) is what rescues sparse kernels in the main study."
    )
    result.notes.append(
        "Prefetch accuracy column: useful/issued; wasted prefetches show "
        "up as extra DRAM reads (traffic honesty — see "
        "tests/test_prefetch.py::test_prefetch_traffic_accounted)."
    )
    result.notes.append(
        "The global stride detector scores ~0 on STREAM: the three "
        "interleaved arrays alias its single stride register — real parts "
        "use per-stream tables, which is why next-line remains the "
        "workhorse here."
    )
    return result
