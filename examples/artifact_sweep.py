"""Regenerate a slice of the paper's raw-data artifact.

The SC '17 artifact publishes per-kernel executables and an
``opm_rawdata`` repository of their outputs (appendix A). This example
drives the artifact-compatible runners of :mod:`repro.artifact` over a
reduced version of the appendix sweeps and writes the same CSV layout
under ``./opm_rawdata_repro/`` — the file tree a downstream analysis
script written against the original artifact would consume.

Run with:  python examples/artifact_sweep.py [out_dir]
"""

import sys

from repro.artifact import (
    run_dgemm,
    run_fft,
    run_spmv,
    run_stream,
    write_raw_data,
)
from repro.sparse import build_collection


def main(out_dir: str = "opm_rawdata_repro") -> None:
    records = []

    # A.2.1 DGEMM sweep (reduced): orders x tile, Broadwell modes.
    for order in (2048, 6144, 10240):
        for nb in (256, 1024):
            for mode in ("off", "on"):
                records.append(
                    run_dgemm(
                        m=order, n=order, k=order, nb=nb,
                        platform="broadwell", mode=mode,
                    )
                )

    # A.2.3 SpMV over a slice of the matrix collection, KNL modes.
    for descriptor in build_collection(40)[::8]:
        for mode in ("off", "flat", "cache", "hybrid"):
            records.append(run_spmv(descriptor, platform="knl", mode=mode))

    # A.2.7 FFT sizes on KNL.
    for size in (96, 288, 512):
        for mode in ("off", "flat"):
            records.append(run_fft(size=size, platform="knl", mode=mode))

    # A.2.8 STREAM array sweep on Broadwell.
    for exp in (16, 20, 24):
        for mode in ("off", "on"):
            records.append(
                run_stream(arraysz=2**exp, platform="broadwell", mode=mode)
            )

    paths = write_raw_data(records, out_dir)
    print(f"wrote {len(records)} records into {len(paths)} files:")
    for p in paths:
        print(f"  {p}")
    print("\nsample record (appendix output format):")
    print(records[0].render())


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["opm_rawdata_repro"]))
