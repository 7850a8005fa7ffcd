"""MCDRAM mode selection, following the paper's Section 6 guidelines.

Given an application's footprint and hot-set size, which of flat, cache
or hybrid wins? This example sweeps a STREAM-like and an FFT-like
workload across footprints and prints the measured-best mode next to the
guideline's prediction:

  I.   w/o MCDRAM is (almost) never best.
  II.  Flat is best while the data fits the 16 GB MCDRAM.
  III. Hybrid wins when the hot set fits its 8 GB cache half but the data
       exceeds MCDRAM.
  IV.  Cache mode is best for big data with good locality.

Run with:  python examples/mcdram_mode_tuning.py
"""

from repro import platforms
from repro.engine import estimate
from repro.kernels import FftKernel, StreamKernel
from repro.platforms import ALL_MCDRAM_MODES, GIB, McdramMode


def guideline(footprint: float, locality: bool) -> McdramMode:
    """The paper's Section 6 decision rule."""
    if footprint <= 16 * GIB:
        return McdramMode.FLAT
    if locality:
        return McdramMode.CACHE  # hot set shifts; hardware tracks it
    return McdramMode.HYBRID  # at least the flat half stays fast


def sweep(title: str, configs, locality: bool) -> None:
    machine = platforms.knl()
    print(f"\n{title}")
    print(f"{'footprint':>12} | " + " | ".join(f"{m.value:>7}" for m in ALL_MCDRAM_MODES) + " | best    | guideline")
    agreements = 0
    for kernel in configs:
        profile = kernel.profile()
        fp = profile.footprint_bytes
        results = {
            mode: estimate(profile, machine, mcdram=mode).gflops
            for mode in ALL_MCDRAM_MODES
        }
        best = max(results, key=results.get)
        predicted = guideline(fp, locality)
        agree = results[predicted] >= 0.95 * results[best]
        agreements += agree
        cells = " | ".join(f"{results[m]:7.1f}" for m in ALL_MCDRAM_MODES)
        print(
            f"{fp / GIB:10.1f}G | {cells} | {best.value:<7} | "
            f"{predicted.value}{'' if agree else '  <-- disagrees'}"
        )
    print(f"guideline optimal (within 5%) on {agreements}/{len(configs)} points")


def main() -> None:
    stream_sizes = [int(s * GIB) // 24 for s in (2, 8, 14, 24, 48)]
    sweep(
        "STREAM-like (no locality): flat until 16 GB, hybrid after",
        [StreamKernel(n=n) for n in stream_sizes],
        locality=False,
    )
    fft_sizes = [int(round((s * GIB / 48) ** (1 / 3))) for s in (2, 8, 14, 24, 48)]
    sweep(
        "FFT-like (pencil locality): flat until 16 GB, cache after",
        [FftKernel(size=s) for s in fft_sizes],
        locality=True,
    )


if __name__ == "__main__":
    main()
