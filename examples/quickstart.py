"""Quickstart: model one kernel on both OPM platforms.

Runs SpMV on a synthetic banded matrix through the analytic engine on the
eDRAM Broadwell and the MCDRAM KNL, prints throughput per OPM mode, and
validates the functional kernel against SciPy on a small instance —
the three faces of the library (functional kernels, platform models,
performance engine) in ~60 lines.

Run with:  python examples/quickstart.py
"""

from repro import platforms
from repro.engine import estimate
from repro.kernels import SpmvKernel
from repro.platforms import ALL_MCDRAM_MODES
from repro.sparse import from_params, generators


def main() -> None:
    # 1. Functional correctness on a small materialized matrix.
    small = generators.banded(2000, 40_000, seed=1)
    kernel = SpmvKernel.from_matrix(small)
    assert kernel.validate(), "CSR5 SpMV disagrees with SciPy!"
    print(f"functional check OK: CSR5 SpMV on {small}")

    # 2. Analytic model on a paper-scale matrix (too big to materialize).
    big = from_params(
        "demo", "banded", n_rows=500_000, nnz=8_000_000, seed=7
    )
    profile = SpmvKernel(descriptor=big).profile()
    print(
        f"\nworkload: SpMV, {big.nnz / 1e6:.0f}M nonzeros, "
        f"footprint {big.footprint_bytes / 2**20:.0f} MiB, "
        f"AI {profile.arithmetic_intensity:.3f} flops/byte"
    )

    # 3. Broadwell: eDRAM on/off.
    bdw = platforms.broadwell()
    on = estimate(profile, bdw, edram=True)
    off = estimate(profile, bdw, edram=False)
    print(f"\n{bdw.name} ({bdw.arch}):")
    print(f"  w/o eDRAM: {off.gflops:7.2f} GFlop/s  ({off.bound})")
    print(f"  w/  eDRAM: {on.gflops:7.2f} GFlop/s  ({on.bound})")
    print(f"  speedup:   {on.gflops / off.gflops:.2f}x")

    # 4. KNL: the four MCDRAM modes.
    machine = platforms.knl()
    print(f"\n{machine.name} ({machine.arch}):")
    for mode in ALL_MCDRAM_MODES:
        r = estimate(profile, machine, mcdram=mode)
        print(f"  {mode!s:<22} {r.gflops:7.2f} GFlop/s  ({r.bound})")


if __name__ == "__main__":
    main()
