"""Energy breakeven explorer — the paper's Equation (1) in practice.

For an HPC-center administrator whose top priority is the energy bill:
enabling an OPM costs W% extra power and buys P% performance; energy is
saved iff P > W. This example sweeps footprints for two kernels and
prints where the energy-effective region (EER) begins and ends relative
to the performance-effective region (PER) — the paper's Figure 28 story
— plus energy-delay products for users who weight performance higher.

Run with:  python examples/energy_breakeven.py
"""

from repro import platforms
from repro.engine import estimate
from repro.kernels import StencilKernel, StreamKernel
from repro.power import compare, energy_delay_product, energy_ratio, measure


def sweep_stream() -> None:
    m_on = platforms.broadwell(edram=True)
    m_off = platforms.broadwell(edram=False)
    print("STREAM TRIAD on Broadwell: eDRAM regions")
    print(
        f"{'footprint':>12} | {'speedup':>8} | {'power':>7} | "
        f"{'E ratio':>8} | verdict"
    )
    per, eer = [], []
    for logn in range(16, 27):
        n = 2**logn
        profile = StreamKernel(n=n).profile()
        s_on = measure(estimate(profile, m_on, edram=True), m_on)
        s_off = measure(estimate(profile, m_off, edram=False), m_off)
        cmp = compare(s_on, s_off)
        fp_mb = profile.footprint_bytes / 2**20
        if cmp.perf_gain > 0.01:
            per.append(fp_mb)
        if cmp.saves_energy:
            eer.append(fp_mb)
        verdict = "EER" if cmp.saves_energy else ("PER" if cmp.perf_gain > 0.01 else "-")
        print(
            f"{fp_mb:10.1f}MB | {1 + cmp.perf_gain:7.2f}x | "
            f"{cmp.power_increase:+6.1%} | {cmp.energy_ratio:8.3f} | {verdict}"
        )
    if per:
        print(f"\nPER: {min(per):.0f}..{max(per):.0f} MB", end="")
    if eer:
        print(f"; EER: {min(eer):.0f}..{max(eer):.0f} MB (narrower, as Figure 28 shows)")
    else:
        print("; EER empty")


def edp_tradeoff() -> None:
    """Same comparison under EDP — performance-weighted users flip sooner."""
    m_on = platforms.broadwell(edram=True)
    m_off = platforms.broadwell(edram=False)
    profile = StencilKernel(384, 384, 384, threads=8).profile()
    s_on = measure(estimate(profile, m_on, edram=True), m_on)
    s_off = measure(estimate(profile, m_off, edram=False), m_off)
    print("\nStencil (384^3), metric sensitivity:")
    print(f"  energy:  {s_on.energy_j:10.1f} J vs {s_off.energy_j:10.1f} J (eDRAM on/off)")
    for k, label in ((1, "EDP"), (2, "ED^2P")):
        on = energy_delay_product(s_on, exponent=k)
        off = energy_delay_product(s_off, exponent=k)
        winner = "eDRAM on" if on < off else "eDRAM off"
        print(f"  {label:<6} {on:12.3g} vs {off:12.3g} -> {winner}")
    print(
        "\nClosed form: for the paper's average +8.6% eDRAM power, the "
        f"breakeven speedup is 1.086x (ratio {energy_ratio(0.086, 0.086):.3f})."
    )


if __name__ == "__main__":
    sweep_stream()
    edp_tradeoff()
