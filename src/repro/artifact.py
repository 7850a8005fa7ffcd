"""Artifact-style runners — the paper's Appendix A interface.

The SC '17 artifact runs each kernel as a standalone executable with
documented arguments and a three-part output: "Dataset statistics,
elapsed execution time, GFLOPs throughput", collected into the
``opm_rawdata`` repository. This module reproduces that interface on top
of the model so downstream tooling written against the original artifact
format keeps working: one ``run_*`` function per kernel taking the
appendix's argument names, producing :class:`ArtifactRecord` rows, and
:func:`write_raw_data` laying them out as per-kernel/per-mode CSV files.

Example (appendix A.2.1: ``./test_dgemm --m=4096 --n=4096 --k=4096
--nb=256`` on BRD)::

    rec = run_dgemm(m=4096, n=4096, k=4096, nb=256, platform="broadwell",
                    mode="on")
    print(rec.render())
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from repro.engine.exectime import RunResult, estimate
from repro.experiments.sweeps import KERNEL_VARIANTS
from repro.kernels import (
    CholeskyKernel,
    FftKernel,
    GemmKernel,
    Kernel,
    SpmvKernel,
    SptransKernel,
    SptrsvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.platforms import resolve
from repro.sparse import CSRMatrix, MatrixDescriptor, from_matrix, read_mm
from repro.viz.csvout import write_csv


@dataclasses.dataclass(frozen=True)
class ArtifactRecord:
    """One artifact-style output row."""

    kernel: str
    platform: str
    mode: str
    arguments: str
    dataset_stats: str
    elapsed_seconds: float
    gflops: float

    def render(self) -> str:
        """The appendix's three-part output format."""
        return (
            f"{self.dataset_stats}\n"
            f"elapsed execution time: {self.elapsed_seconds:.6f} s\n"
            f"GFLOPs throughput: {self.gflops:.4f}"
        )

    def as_row(self) -> tuple:
        return (
            self.kernel,
            self.platform,
            self.mode,
            self.arguments,
            self.dataset_stats,
            self.elapsed_seconds,
            self.gflops,
        )


_COLUMNS = (
    "kernel",
    "platform",
    "mode",
    "arguments",
    "dataset_stats",
    "elapsed_seconds",
    "gflops",
)


def _variants(platform: str) -> tuple[str, int]:
    """The (SpTRANS algorithm, threads) the sweeps use on ``platform``;
    the artifact covers the paper's two platforms only."""
    if platform not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown platform {platform!r}; choose from {', '.join(KERNEL_VARIANTS)}"
        )
    return KERNEL_VARIANTS[platform]


def _evaluate(kernel: Kernel, platform: str, mode: str) -> RunResult:
    _variants(platform)
    machine, kwargs = resolve(platform, mode)
    return estimate(kernel.profile(), machine, **kwargs)


def run_dgemm(*, m: int, n: int, k: int, nb: int, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.1: ``./test_dgemm --m= --n= --k= --nb=``."""
    if not (m == n == k):
        raise ValueError("the study sweeps square GEMM (m == n == k)")
    kernel = GemmKernel(order=m, tile=nb)
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel="dgemm",
        platform=platform,
        mode=mode,
        arguments=f"--m={m} --n={n} --k={k} --nb={nb}",
        dataset_stats=f"dense matrix {m}x{n}, random values",
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def run_dpotrf(*, m: int, n: int, k: int, nb: int, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.2: ``./test_dpotrf --m= --n= --k= --nb=``."""
    kernel = CholeskyKernel(order=m, tile=nb)
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel="dpotrf",
        platform=platform,
        mode=mode,
        arguments=f"--m={m} --n={n} --k={k} --nb={nb}",
        dataset_stats=f"SPD matrix {m}x{m}, random values",
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def _sparse_record(
    name: str,
    kernel_cls,
    matrix: CSRMatrix | MatrixDescriptor | str | Path,
    platform: str,
    mode: str,
    **kernel_kwargs,
) -> ArtifactRecord:
    if isinstance(matrix, (str, Path)):
        csr = read_mm(matrix)
        descriptor = from_matrix(Path(matrix).stem, csr)
        kernel = kernel_cls(descriptor=descriptor, matrix=csr, **kernel_kwargs)
        arg = str(matrix)
    elif isinstance(matrix, CSRMatrix):
        descriptor = from_matrix("input", matrix)
        kernel = kernel_cls(descriptor=descriptor, matrix=matrix, **kernel_kwargs)
        arg = "<in-memory matrix>"
    else:
        descriptor = matrix
        kernel = kernel_cls(descriptor=descriptor, **kernel_kwargs)
        arg = f"<descriptor {descriptor.name}>"
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel=name,
        platform=platform,
        mode=mode,
        arguments=arg,
        dataset_stats=(
            f"matrix {descriptor.n_rows}x{descriptor.n_rows}, "
            f"nnz={descriptor.nnz}"
        ),
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def run_spmv(matrix, *, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.3: ``./spmv matrix.mtx``."""
    return _sparse_record("spmv", SpmvKernel, matrix, platform, mode)


def run_sptranspose(matrix, *, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.4: ``VER=5|7 ./sptranspose matrix.mtx`` —
    ScanTrans on Broadwell, MergeTrans on KNL, as the artifact selects."""
    algorithm, _ = _variants(platform)
    return _sparse_record(
        "sptrans", SptransKernel, matrix, platform, mode, algorithm=algorithm
    )


def run_trsv(matrix, *, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.5: ``./trsv_test matrix.mtx`` (lower triangle)."""
    return _sparse_record("sptrsv", SptrsvKernel, matrix, platform, mode)


def run_stencil(*, gridsz: tuple[int, int, int], platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.6: ``./stencil-run.sh ... gridsz -b 64 -bz 96``."""
    _, threads = _variants(platform)
    kernel = StencilKernel(*gridsz, threads=threads)
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel="stencil",
        platform=platform,
        mode=mode,
        arguments=f"-g {gridsz[0]}x{gridsz[1]}x{gridsz[2]} -b 64 -bz 96",
        dataset_stats=f"3D grid {gridsz[0]}x{gridsz[1]}x{gridsz[2]}, random values",
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def run_fft(*, size: int, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.7: ``./bench -s irf{size}x{size}x{size} -opatient``."""
    _, threads = _variants(platform)
    kernel = FftKernel(size=size)
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel="fft",
        platform=platform,
        mode=mode,
        arguments=f"-s irf{size}x{size}x{size} -opatient -onthreads={threads}",
        dataset_stats=f"3D dataset {size}^3, random values",
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def run_stream(*, arraysz: int, platform: str, mode: str) -> ArtifactRecord:
    """Appendix A.2.8: STREAM compiled with ``-DSTREAM_ARRAY_SIZE=...``."""
    kernel = StreamKernel(n=arraysz)
    result = _evaluate(kernel, platform, mode)
    return ArtifactRecord(
        kernel="stream",
        platform=platform,
        mode=mode,
        arguments=f"-DSTREAM_ARRAY_SIZE={arraysz}",
        dataset_stats=f"array of {arraysz} doubles, random values",
        elapsed_seconds=result.seconds,
        gflops=result.gflops,
    )


def write_raw_data(records: Sequence[ArtifactRecord], out_dir: str | Path) -> list[Path]:
    """Lay records out like the ``opm_rawdata`` repository: one CSV per
    (kernel, platform), rows spanning modes and inputs."""
    out = Path(out_dir)
    groups: dict[tuple[str, str], list[ArtifactRecord]] = {}
    for rec in records:
        groups.setdefault((rec.kernel, rec.platform), []).append(rec)
    paths = []
    for (kernel, platform), recs in sorted(groups.items()):
        path = out / platform / f"{kernel}.csv"
        write_csv(path, _COLUMNS, [r.as_row() for r in recs])
        paths.append(path)
    return paths
