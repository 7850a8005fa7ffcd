"""Model-validation harness: analytic engine vs exact trace simulation.

DESIGN.md promises the analytic hit-rate model (reuse curve evaluated at
cumulative capacities) agrees with the exact set-associative simulator on
canonical access patterns. This module runs a *workload zoo* through
both paths and reports per-level hit-rate errors, giving the reproduction
a quantified accuracy statement (also enforced in
``tests/test_extensions.py`` and surfaced via ``opm-repro validate``).

Method: for each zoo workload we (1) generate its address trace, (2) run
the scaled-down exact hierarchy, (3) compute the trace's *measured*
stack-distance curve, and (4) compare the cumulative hit fractions the
curve predicts at each level's cumulative capacity with the simulator's
measured ones. The curve-vs-simulator error isolates exactly the
approximations the analytic engine makes (full associativity, no
replacement-policy effects).

The harness runs on the library's one trace pipeline: the zoo's
``*_array`` generators feed :func:`repro.trace.expand_lines`, the
hierarchy's :meth:`~repro.memory.hierarchy.Hierarchy.run_array` replay
(differentially tested against one-at-a-time
:meth:`~repro.memory.hierarchy.Hierarchy.access`), and the vectorized
:func:`~repro.trace.stack_distances`.

For long traces (kernel and sparse-matrix runs),
:func:`validate_case_streamed` / :func:`validate_kernel_streamed` tee a
chunk stream into the simulator's batched replay and the window sampler
(:class:`repro.trace.stackdist.WindowSampler`) in a single pass, and the
analytic side uses the sampled stack-distance curve (``repro validate
--sampled`` drives this end to end). The sampler keeps 8 B per sampled
reference; a kernel's chunk stream holds one whole repetition of its
trace (:func:`~repro.kernels.traces.kernel_trace_chunks`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.memory import for_broadwell
from repro.memory.hierarchy import Hierarchy
from repro.platforms import MachineSpec, broadwell
from repro.trace import (
    expand_lines,
    pointer_chase_array,
    repeated_sweep_array,
    stack_distances,
    strided_array,
    tiled_2d_array,
    uniform_random_array,
)
from repro.trace.stackdist import WindowSampler

#: Scale factor for fast exact simulation of realistic capacity ratios.
SCALE = 0.001


@dataclasses.dataclass(frozen=True)
class LevelError:
    level: str
    predicted_hit: float
    simulated_hit: float

    @property
    def abs_error(self) -> float:
        return abs(self.predicted_hit - self.simulated_hit)


@dataclasses.dataclass(frozen=True)
class ValidationCase:
    """One zoo workload's validation outcome."""

    name: str
    levels: tuple[LevelError, ...]

    @property
    def max_abs_error(self) -> float:
        return max((l.abs_error for l in self.levels), default=0.0)

    @property
    def mean_abs_error(self) -> float:
        if not self.levels:
            return 0.0
        return sum(l.abs_error for l in self.levels) / len(self.levels)


def workload_zoo() -> dict[str, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """Canonical patterns the kernels decompose into (byte-addr arrays)."""
    return {
        "sequential-stream": lambda: repeated_sweep_array(0, 20_000, 1),
        "repeated-sweep-small": lambda: repeated_sweep_array(0, 500, 8),
        "repeated-sweep-l3": lambda: repeated_sweep_array(0, 6_000, 6),
        "strided-512B": lambda: strided_array(0, 8_000, 512),
        "tiled-matrix": lambda: tiled_2d_array(0, 96, 96, 16, 16),
        "uniform-random": lambda: uniform_random_array(0, 3_000, 15_000, seed=3),
        "pointer-chase": lambda: pointer_chase_array(0, 2_000, 8_000, seed=4),
    }


def _level_errors(hierarchy: Hierarchy, profile) -> tuple[LevelError, ...]:
    """Per-level predicted-vs-simulated hit fractions (cumulative)."""
    total = hierarchy.stats().total_accesses
    errors = []
    cum_capacity = 0
    cum_hits = 0
    for stage in hierarchy._stages:
        cum_capacity += stage.cache.capacity
        cum_hits += stage.stats.hits
        predicted = profile.hit_rate(cum_capacity // 64)
        simulated = cum_hits / total if total else 0.0
        errors.append(
            LevelError(
                level=stage.name,
                predicted_hit=predicted,
                simulated_hit=simulated,
            )
        )
    return tuple(errors)


def validate_case(
    name: str,
    workload: tuple[np.ndarray, np.ndarray],
    machine: MachineSpec | None = None,
) -> ValidationCase:
    """Run one workload through both paths and collect per-level errors."""
    machine = machine if machine is not None else broadwell()
    hierarchy = for_broadwell(machine, scale=SCALE)
    addrs, wr = workload
    lines, line_writes = expand_lines(addrs, 8, wr)
    profile = stack_distances(lines)
    hierarchy.run_array(lines, line_writes)
    return ValidationCase(name=name, levels=_level_errors(hierarchy, profile))


def validate_case_streamed(
    name: str,
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    machine: MachineSpec | None = None,
    *,
    window: int = 4096,
    period: int = 4,
    seed: int = 0,
) -> ValidationCase:
    """Streamed validation: one pass, sampled curve.

    ``chunks`` yields ``(line_addrs, writes)`` pairs (the
    ``kernel_trace_chunks`` / ``chunk_arrays`` shape). Each chunk is
    teed into the exact hierarchy's batched replay AND the systematic
    window sampler, so nothing here concatenates the chunks. The
    analytic side uses the *sampled* stack-distance curve, which is what
    full-scale sweeps over UF-matrix-sized traces must do anyway; with
    ``window`` at least the trace length and ``period=1`` it is the exact
    curve, and the case equals :func:`validate_case`.
    """
    machine = machine if machine is not None else broadwell()
    hierarchy = for_broadwell(machine, scale=SCALE)
    sampler = WindowSampler(window, period, seed)

    def tee() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for la, lw in chunks:
            sampler.push(la)
            yield la, lw

    hierarchy.run_batched(tee())
    profile = sampler.finish()
    return ValidationCase(name=name, levels=_level_errors(hierarchy, profile))


def validate_kernel_streamed(
    kernel,
    machine: MachineSpec | None = None,
    *,
    reps: int = 1,
    window: int = 4096,
    period: int = 4,
    seed: int = 0,
) -> ValidationCase:
    """Streamed validation of one instrumented kernel's real trace."""
    from repro.kernels.traces import kernel_trace_chunks

    machine = machine if machine is not None else broadwell()
    chunks = kernel_trace_chunks(kernel, reps=reps, line=machine.dram.line)
    return validate_case_streamed(
        kernel.name,
        chunks,
        machine,
        window=window,
        period=period,
        seed=seed,
    )


def validate_all(machine: MachineSpec | None = None) -> list[ValidationCase]:
    """Validate the whole zoo; deterministic."""
    return [
        validate_case(name, factory(), machine)
        for name, factory in workload_zoo().items()
    ]


def report(cases: list[ValidationCase]) -> str:
    """Human-readable accuracy report."""
    lines = [
        "analytic-vs-exact hit-rate validation (Broadwell shape, scaled)",
        f"{'workload':<24} {'mean |err|':>10} {'max |err|':>10}",
    ]
    for case in cases:
        lines.append(
            f"{case.name:<24} {case.mean_abs_error:10.4f} "
            f"{case.max_abs_error:10.4f}"
        )
    worst = max(c.max_abs_error for c in cases) if cases else 0.0
    lines.append(f"worst-case per-level error: {worst:.4f}")
    return "\n".join(lines)
