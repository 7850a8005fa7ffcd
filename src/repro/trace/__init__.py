"""Trace infrastructure: synthetic generators, line expansion, stack distances."""

from repro.trace.batch import CHUNK, chunk_arrays, expand_lines
from repro.trace.generator import (
    pointer_chase_array,
    repeated_sweep_array,
    sequential_array,
    strided_array,
    tiled_2d_array,
    uniform_random_array,
)
from repro.trace.stackdist import (
    SampledProfile,
    StackDistanceProfile,
    sampled_stack_distances,
    stack_distances,
)

__all__ = [
    "CHUNK",
    "SampledProfile",
    "StackDistanceProfile",
    "chunk_arrays",
    "expand_lines",
    "pointer_chase_array",
    "repeated_sweep_array",
    "sampled_stack_distances",
    "sequential_array",
    "stack_distances",
    "strided_array",
    "tiled_2d_array",
    "uniform_random_array",
]
