"""The one-pass engine equals the per-phase oracle, float for float.

``repro.engine.estimate`` walks a stack compiled once per (machine, mode,
knobs) and memoizes the noise factor; ``tests/engine_oracle.py`` keeps the
per-phase evaluation it replaced, with its own per-call stack resolution.
Every comparison here is ``RunResult`` equality — exact floats, bound
strings, phases and per-stage loads — so experiment digests and served
answers cannot move.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DEFAULT_KNOBS, estimate
from repro.engine.exectime import _noise_factor, compile_stack
from repro.experiments.sweeps import SWEEP_KERNELS, collection_for, sweep_configs
from repro.kernels import GemmKernel, SpmvKernel, StreamKernel
from repro.kernels.profile import Phase, ReuseCurve, WorkloadProfile
from repro.os.multiprog import _machine_with_slice
from repro.platforms import GIB, MIB, broadwell, knl, skylake
from repro.platforms.tuning import ALL_MCDRAM_MODES, EdramMode, McdramMode
from tests import engine_oracle

BROADWELL = broadwell()
KNL = knl()
SKYLAKE = skylake()

#: Every OPM configuration the engine resolves, by platform.
CONFIGS = [
    *[(BROADWELL, {"edram": e}) for e in (True, False, EdramMode.ON, EdramMode.OFF, None)],
    *[(KNL, {"mcdram": m}) for m in (*McdramMode, None)],
    *[(SKYLAKE, {"mcdram": m}) for m in (McdramMode.CACHE, McdramMode.OFF)],
    (skylake(edram=False), {}),
]

KNOBS = (
    DEFAULT_KNOBS,
    DEFAULT_KNOBS.replace(edram_victim=False),
    DEFAULT_KNOBS.replace(valley_enabled=False),
    DEFAULT_KNOBS.replace(direct_map_capacity_factor=1.0),
    # Straddle factors whose products round differently when regrouped.
    DEFAULT_KNOBS.replace(
        flat_straddle_bandwidth_factor=0.33,
        flat_straddle_latency_factor=2.3,
        flat_straddle_cache_factor=0.07,
    ),
)
KNOB_IDS = ["default", "inclusive", "no-valley", "dm1", "straddle"]
NOISY = DEFAULT_KNOBS.replace(noise_sigma=0.06)


def assert_same(profile, machine, **kwargs):
    fast = estimate(profile, machine, **kwargs)
    assert fast == engine_oracle.estimate(profile, machine, **kwargs)
    return fast


@st.composite
def reuse_curves(draw, footprint):
    kind = draw(st.sampled_from(["none", "full", "knots"]))
    if kind == "none":
        return ReuseCurve.no_reuse()
    if kind == "full":
        return ReuseCurve.full_reuse(draw(st.floats(0.0, footprint)))
    knots = [
        (draw(st.floats(0.0, footprint)), draw(st.floats(0.0, 1.0)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return ReuseCurve.from_knots(knots, footprint=draw(st.sampled_from([None, footprint])))


@st.composite
def profiles(draw):
    """Multi-phase profiles whose footprints land on both sides of every
    capacity, KNL's 16 GiB MCDRAM included."""
    footprint = draw(st.integers(1 << 12, 1 << 36))
    phases = tuple(
        Phase(
            name=f"p{i}",
            flops=draw(st.floats(0.0, 1e13)),
            demand_bytes=float(footprint) * draw(st.floats(0.0, 40.0)),
            reuse=draw(reuse_curves(float(footprint))),
            write_fraction=draw(st.floats(0.0, 1.0)),
            mlp=draw(st.floats(1.0, 64.0)),
            mlp_cap=draw(st.sampled_from([float("inf"), 1.0, 24.0, 4096.0])),
            serial_overhead_s=draw(st.sampled_from([0.0, 1e-6, 1e-3, 10.0])),
        )
        for i in range(draw(st.integers(1, 5)))
    )
    return WorkloadProfile(
        kernel=draw(st.sampled_from(["synthetic", "spmv", "gemm", "stream"])),
        params={"footprint": footprint, "i": draw(st.integers(0, 3))},
        phases=phases,
        arrays={"data": footprint},
        compute_efficiency=draw(st.floats(0.01, 1.0)),
    )


@settings(max_examples=60, deadline=None)
@given(profile=profiles(), knobs=st.sampled_from(KNOBS))
def test_random_profiles_match_oracle_on_every_configuration(profile, knobs):
    for machine, kwargs in CONFIGS:
        assert_same(profile, machine, knobs=knobs, **kwargs)


@settings(max_examples=25, deadline=None)
@given(profile=profiles(), noise_seed=st.sampled_from([None, 7]))
def test_noisy_profiles_match_oracle_on_memo_miss_and_hit(profile, noise_seed):
    _noise_factor.cache_clear()
    for machine, kwargs in CONFIGS:
        first = assert_same(profile, machine, knobs=NOISY, noise_seed=noise_seed, **kwargs)
        again = assert_same(profile, machine, knobs=NOISY, noise_seed=noise_seed, **kwargs)
        assert first == again


@pytest.mark.parametrize("gib", [4, 12, 15.9, 16.1, 24, 37, 100])
@pytest.mark.parametrize("knobs", KNOBS, ids=KNOB_IDS)
def test_knl_modes_on_both_sides_of_mcdram(gib, knobs):
    stream = StreamKernel(n=int(gib * GIB) // 24).profile()
    gemm = GemmKernel(order=int((gib * GIB / 24) ** 0.5), tile=512).profile()
    footprint = stream.footprint_bytes
    # Dependent pointer chases: latency-bound at every footprint.
    chases = [
        WorkloadProfile("synthetic", {}, (
            Phase("chase", 1.0, footprint * passes, ReuseCurve.no_reuse(), mlp_cap=1.0),
        ), {"data": footprint})
        for passes in (1.0, 1.7, 3.3)
    ]
    straddles = engine_oracle.build_stack(
        KNL, float(footprint), mcdram=McdramMode.FLAT
    ).straddling
    assert straddles == (footprint > 16 * GIB)
    for profile in (stream, gemm, *chases):
        for mode in McdramMode:
            assert_same(profile, KNL, mcdram=mode, knobs=knobs)


def test_stack_memo_is_keyed_on_values_and_knobs():
    """Same-named machines that differ in one level, and knob sets that
    change the stack, must each get their own compiled stack."""
    reuse = ReuseCurve.from_knots(
        [(32 * MIB, 0.2), (256 * MIB, 0.35), (2 * GIB, 0.5), (6 * GIB, 0.6)],
        footprint=12 * GIB,
    )
    phase = Phase("sweep", 1e10, 48.0 * GIB, reuse, write_fraction=0.3, mlp=12.0)
    profile = WorkloadProfile("synthetic", {}, (phase,), {"data": 12 * GIB})
    # A co-run tenant's 4 GiB MCDRAM slice, and the Figure 30 what-if's
    # eDRAM at 4x capacity and half bandwidth: each keeps its base's name.
    slice_ = _machine_with_slice(KNL, 4 * GIB, 1.0)
    edram = BROADWELL.opm
    whatif = BROADWELL.with_opm(
        dataclasses.replace(edram, capacity=4 * edram.capacity, bandwidth=edram.bandwidth / 2)
    )
    assert slice_.name == KNL.name and whatif.name == BROADWELL.name
    knob_sets = (KNOBS[0], KNOBS[1], KNOBS[3], KNOBS[4])
    pairs = [
        *[(m, {"mcdram": mode}) for mode in McdramMode for m in (KNL, slice_)],
        *[(m, {"edram": True}) for m in (BROADWELL, whatif)],
    ]
    compile_stack.cache_clear()
    for _ in range(2):  # the second pass is all memo hits
        for machine, kwargs in pairs:
            for knobs in knob_sets:
                assert_same(profile, machine, knobs=knobs, **kwargs)
    # The variants price differently, so a memo that confused them fails.
    for base, variant, kwargs in (
        (KNL, slice_, {"mcdram": McdramMode.CACHE}),
        (KNL, slice_, {"mcdram": McdramMode.FLAT}),
        (BROADWELL, whatif, {"edram": True}),
    ):
        assert estimate(profile, base, **kwargs) != estimate(profile, variant, **kwargs)
    for machine, mode in ((KNL, McdramMode.CACHE), (slice_, McdramMode.FLAT)):
        seconds = {estimate(profile, machine, mcdram=mode, knobs=k).seconds for k in knob_sets}
        assert len(seconds) > 1


def test_first_channel_wins_a_bandwidth_tie():
    # Every level at DRAM bandwidth and no reuse: each channel carries the
    # whole demand, so all channel times are equal.
    dram_bw = BROADWELL.dram.bandwidth
    level = dataclasses.replace(BROADWELL, caches=tuple(
        dataclasses.replace(c, bandwidth=dram_bw) for c in BROADWELL.caches
    ))
    phase = Phase("stream", 1.0, 1e9, ReuseCurve.no_reuse(), mlp=64.0)
    profile = WorkloadProfile("synthetic", {}, (phase,), {"data": 1 << 30})
    assert assert_same(profile, level, edram=False).bound == "bandwidth:L1"


def test_first_phase_wins_a_dominant_tie():
    compute = Phase("compute", 1e12, 0.0, ReuseCurve.no_reuse())
    alone = WorkloadProfile("synthetic", {}, (compute,), {"data": 1 << 20})
    sync = Phase(
        "sync", 0.0, 0.0, ReuseCurve.no_reuse(),
        serial_overhead_s=engine_oracle.estimate(alone, BROADWELL).seconds,
    )
    for phases, bound in (((compute, sync), "compute"), ((sync, compute), "overhead")):
        profile = WorkloadProfile("synthetic", {}, phases, {"data": 1 << 20})
        assert assert_same(profile, BROADWELL).bound == bound


def test_noisy_collection_profiles_match_oracle():
    _noise_factor.cache_clear()
    for d in collection_for(quick=True)[:24]:
        profile = SpmvKernel(descriptor=d).profile()
        for noise_seed in (None, 7):
            assert_same(profile, BROADWELL, edram=True, knobs=NOISY, noise_seed=noise_seed)
            for mode in ALL_MCDRAM_MODES:
                assert_same(profile, KNL, mcdram=mode, knobs=NOISY, noise_seed=noise_seed)


def test_quick_table4_grid_matches_oracle():
    for name in SWEEP_KERNELS:
        for kernel in sweep_configs("broadwell", name, quick=True):
            profile = kernel.profile()
            for edram in (True, False):
                assert_same(profile, BROADWELL, edram=edram)


def test_quick_table5_grid_matches_oracle():
    for name in SWEEP_KERNELS:
        for kernel in sweep_configs("knl", name, quick=True):
            profile = kernel.profile()
            for mode in ALL_MCDRAM_MODES:
                assert_same(profile, KNL, mcdram=mode)
