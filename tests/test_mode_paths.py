"""One (platform, mode) vocabulary across every path that names an OPM mode.

The figure sweeps, the serve advisor, the artifact runners and the energy
ledger all turn a mode name into a machine through
:func:`repro.platforms.resolve`, so they must agree on every
(platform, mode) they share, and the power models must charge the OPM's
static power exactly when the resolved machine has an OPM.
"""

import dataclasses

import pytest

from repro import artifact
from repro.engine.exectime import estimate
from repro.experiments.sweeps import SWEEP_KERNELS, SWEEP_MODES, run_sweep, sweep_configs
from repro.kernels import StreamKernel
from repro.platforms import MODES, broadwell, knl, resolve
from repro.power import measure
from repro.power.ledger import ENERGY_CONFIGS, build_config, demo_kernel, price_config
from repro.serve import advisor

#: (advisor kernel, its params, the artifact runner of the same kernel).
SAME_KERNELS = {
    "gemm-2048": (
        "gemm",
        {"order": 2048, "tile": 256},
        lambda **kw: artifact.run_dgemm(m=2048, n=2048, k=2048, nb=256, **kw),
    ),
    "gemm-12288": (
        "gemm",
        {"order": 12288, "tile": 1024},
        lambda **kw: artifact.run_dgemm(m=12288, n=12288, k=12288, nb=1024, **kw),
    ),
    "cholesky-4096": (
        "cholesky",
        {"order": 4096, "tile": 512},
        lambda **kw: artifact.run_dpotrf(m=4096, n=4096, k=4096, nb=512, **kw),
    ),
    "stream-2^22": (
        "stream",
        {"n": 2**22},
        lambda **kw: artifact.run_stream(arraysz=2**22, **kw),
    ),
    # 24 GB of arrays: beyond the 16 GB MCDRAM, so flat mode straddles.
    "stream-2^30": (
        "stream",
        {"n": 2**30},
        lambda **kw: artifact.run_stream(arraysz=2**30, **kw),
    ),
    "fft-288": ("fft", {"size": 288}, lambda **kw: artifact.run_fft(size=288, **kw)),
}


@pytest.mark.parametrize("platform", list(SWEEP_MODES))
@pytest.mark.parametrize("case", list(SAME_KERNELS))
def test_sweep_advisor_and_artifact_agree(platform, case):
    kernel, params, run_artifact = SAME_KERNELS[case]
    answer = advisor.advise(
        {"kernel": kernel, "params": params, "candidates": [platform]}
    )
    advised = {row["mode"]: row["gflops"] for row in answer["ranked"]}
    assert set(advised) == set(MODES[platform])
    for mode in MODES[platform]:
        assert run_artifact(platform=platform, mode=mode).gflops == advised[mode]
    swept = run_sweep([advisor.build_kernel(kernel, params)], platform)
    for label, mode in SWEEP_MODES[platform].items():
        assert swept[label][0] == advised[mode]


@pytest.mark.parametrize("platform", list(SWEEP_MODES))
def test_resolved_machines_price_like_one_shared_machine(platform):
    """The engine takes the mode from its keyword: on every quick sweep
    point, each mode's resolved machine gives the same result as the one
    machine every mode once shared (``broadwell()``, ``knl()``)."""
    shared = {"broadwell": broadwell, "knl": knl}[platform]()
    resolved = [resolve(platform, mode) for mode in SWEEP_MODES[platform].values()]
    for kernel in SWEEP_KERNELS:
        for config in sweep_configs(platform, kernel, quick=True):
            profile = config.profile()
            for machine, kwargs in resolved:
                assert estimate(profile, machine, **kwargs) == estimate(
                    profile, shared, **kwargs
                )


@pytest.mark.parametrize("platform,mode", ENERGY_CONFIGS + (("knl", "hybrid25"),))
def test_ledger_prices_on_the_resolved_machine(platform, mode):
    machine, _ = build_config(platform, mode)
    assert machine == resolve(platform, mode)[0]
    run = price_config(demo_kernel("stream"), platform, mode)
    achieved = min(1.0, run.gflops / machine.dp_peak_gflops)
    background = (
        machine.base_package_power_w
        + machine.max_dynamic_power_w * achieved
        + machine.dram_standby_w
    )
    if machine.opm is not None:
        background += machine.opm.static_power_w
    assert run.background_w == pytest.approx(background)


@pytest.mark.parametrize(
    "platform,mode", [(p, m) for p, modes in MODES.items() for m in modes]
)
def test_measure_charges_opm_static_power_exactly_with_an_opm(platform, mode):
    machine, kwargs = resolve(platform, mode)
    result = estimate(StreamKernel(n=2**20).profile(), machine, **kwargs)
    idle = dataclasses.replace(result, opm_bytes=0.0)
    static = machine.opm.static_power_w if machine.opm is not None else 0.0
    sample = measure(idle, machine, achieved_fraction=0.0)
    assert sample.package_w == machine.base_package_power_w + static


@pytest.mark.parametrize(
    "entry",
    [
        lambda: resolve("knl", "turbo"),
        lambda: build_config("knl", "turbo"),
        lambda: price_config(demo_kernel("stream"), "knl", "turbo"),
        lambda: artifact.run_stream(arraysz=1000, platform="knl", mode="turbo"),
        lambda: advisor.normalize(
            {"kernel": "stream", "params": {"n": 8}, "candidates": ["knl/turbo"]}
        ),
    ],
    ids=["resolve", "build_config", "price_config", "artifact", "advisor"],
)
def test_every_entry_point_rejects_a_mode_with_the_resolver_error(entry):
    with pytest.raises(
        ValueError,
        match=r"^unknown mode 'turbo' for knl; "
        r"choose from off, cache, flat, hybrid, hybrid25$",
    ):
        entry()
