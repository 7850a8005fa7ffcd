"""Platform spec tests (paper Tables 1 and 3)."""

import dataclasses

import pytest

from repro import telemetry
from repro.platforms import (
    ALL_EDRAM_MODES,
    ALL_MCDRAM_MODES,
    MODES,
    EdramMode,
    GIB,
    MIB,
    McdramMode,
    MemLevelSpec,
    OpmSpec,
    broadwell,
    check_mode,
    edram_spec,
    knl,
    mcdram_spec,
    resolve,
    skylake,
    total_capacity,
)


class TestMemLevelSpec:
    def test_valid_level(self):
        lvl = MemLevelSpec(name="L3", capacity=6 * MIB, bandwidth=220.0, latency=12.0)
        assert lvl.capacity == 6 * MIB
        assert not lvl.is_unbounded

    def test_unbounded_dram(self):
        lvl = MemLevelSpec(name="DDR", capacity=None, bandwidth=34.1, latency=60.0)
        assert lvl.is_unbounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity=0, bandwidth=10.0, latency=1.0),
            dict(capacity=1024, bandwidth=0.0, latency=1.0),
            dict(capacity=1024, bandwidth=10.0, latency=-1.0),
            dict(capacity=1024, bandwidth=10.0, latency=1.0, ways=0),
            dict(capacity=1024, bandwidth=10.0, latency=1.0, line=48),
        ],
    )
    def test_invalid_levels_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MemLevelSpec(name="bad", **kwargs)

    def test_scaled_capacity_and_bandwidth(self):
        lvl = MemLevelSpec(name="x", capacity=1 * MIB, bandwidth=100.0, latency=1.0)
        scaled = lvl.scaled(capacity_x=2.0, bandwidth_x=0.5)
        assert scaled.capacity == 2 * MIB
        assert scaled.bandwidth == 50.0
        # Original untouched (frozen dataclass).
        assert lvl.capacity == 1 * MIB

    def test_scaled_unbounded_keeps_none(self):
        lvl = MemLevelSpec(name="x", capacity=None, bandwidth=100.0, latency=1.0)
        assert lvl.scaled(capacity_x=4.0).capacity is None


class TestOpmSpec:
    def test_edram_is_victim_cache(self):
        opm = edram_spec()
        assert opm.kind == "victim-cache"
        assert opm.can_power_off
        assert opm.capacity == 128 * MIB
        assert opm.bandwidth == pytest.approx(102.4)

    def test_mcdram_is_memory_side(self):
        opm = mcdram_spec()
        assert opm.kind == "memory-side"
        assert not opm.can_power_off
        assert opm.capacity == 16 * GIB
        assert opm.bandwidth == pytest.approx(490.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            OpmSpec(name="x", capacity=1024, bandwidth=1.0, latency=1.0, kind="weird")

    def test_edram_whatif_scaling(self):
        opm = edram_spec(capacity_x=2.0, bandwidth_x=4.0)
        assert opm.capacity == 256 * MIB
        assert opm.bandwidth == pytest.approx(409.6)


class TestBroadwell:
    def test_table3_row(self):
        m = broadwell()
        assert m.arch == "Broadwell"
        assert m.cores == 4
        assert m.dp_peak_gflops == pytest.approx(236.8)
        assert m.sp_peak_gflops == pytest.approx(473.6)
        assert m.dram.bandwidth == pytest.approx(34.1)
        assert m.opm is not None and m.opm.name == "eDRAM"
        assert m.llc.name == "L3"
        assert m.llc.capacity == 6 * MIB

    def test_edram_disabled(self):
        m = broadwell(edram=False)
        assert m.opm is None
        assert not m.has_opm

    def test_edram_mode_enum_accepted(self):
        assert broadwell(EdramMode.OFF).opm is None
        assert broadwell(EdramMode.ON).opm is not None

    def test_levels_order(self):
        names = [lvl.name for lvl in broadwell().levels()]
        assert names == ["L1", "L2", "L3", "eDRAM", "DDR3"]

    def test_describe_mentions_every_level(self):
        text = broadwell().describe()
        for token in ("L1", "L2", "L3", "eDRAM", "DDR3", "GFlop/s"):
            assert token in text

    def test_bandwidth_monotonically_decreases_down_hierarchy(self):
        bws = [lvl.bandwidth for lvl in broadwell().levels()]
        assert bws == sorted(bws, reverse=True)


class TestKnl:
    def test_table3_row(self):
        m = knl()
        assert m.arch == "Knights Landing"
        assert m.cores == 64
        assert m.dp_peak_gflops == pytest.approx(3072.0)
        assert m.dram.bandwidth == pytest.approx(102.0)
        assert m.opm is not None and m.opm.capacity == 16 * GIB
        assert m.llc.name == "L2"

    def test_mcdram_latency_above_ddr(self):
        # Paper Section 2.2: MCDRAM has no latency advantage over DDR.
        m = knl()
        assert m.opm is not None
        assert m.opm.latency > m.dram.latency

    def test_edram_latency_below_ddr(self):
        # Paper Section 2.3(b): eDRAM latency is shorter than DDR.
        m = broadwell()
        assert m.opm is not None
        assert m.opm.latency < m.dram.latency

    def test_mode_type_checked(self):
        with pytest.raises(TypeError):
            knl("flat")  # type: ignore[arg-type]


class TestTuning:
    def test_mcdram_mode_fractions(self):
        assert McdramMode.CACHE.cache_fraction == 1.0
        assert McdramMode.FLAT.flat_fraction == 1.0
        assert McdramMode.HYBRID.cache_fraction == 0.5
        assert McdramMode.HYBRID.flat_fraction == 0.5
        assert McdramMode.OFF.cache_fraction == 0.0
        assert not McdramMode.OFF.uses_mcdram

    def test_all_modes_tuples(self):
        # The paper's evaluated set: DDR, flat, cache, 50/50 hybrid.
        assert len(ALL_MCDRAM_MODES) == 4
        assert McdramMode.HYBRID25 not in ALL_MCDRAM_MODES
        assert len(ALL_EDRAM_MODES) == 2
        assert ALL_MCDRAM_MODES[0] is McdramMode.OFF

    def test_hybrid25_split(self):
        assert McdramMode.HYBRID25.cache_fraction == 0.25
        assert McdramMode.HYBRID25.flat_fraction == 0.75
        assert McdramMode.HYBRID25.uses_mcdram

    def test_fractions_sum_to_at_most_one(self):
        for mode in McdramMode:
            assert 0.0 <= mode.cache_fraction + mode.flat_fraction <= 1.0

    def test_edram_mode(self):
        assert EdramMode.ON.enabled
        assert not EdramMode.OFF.enabled


class TestMachineSpec:
    def test_with_opm_replaces(self):
        m = broadwell()
        stripped = m.with_opm(None)
        assert stripped.opm is None
        assert m.opm is not None  # original intact

    def test_total_capacity(self):
        m = broadwell()
        caches_total = total_capacity(m.caches)
        assert caches_total == sum(c.capacity for c in m.caches)

    def test_invalid_machine_rejected(self):
        m = broadwell()
        with pytest.raises(ValueError):
            dataclasses.replace(m, cores=0)
        with pytest.raises(ValueError):
            dataclasses.replace(m, caches=())


class TestResolve:
    def test_every_mode_resolves(self):
        for platform, modes in MODES.items():
            assert check_mode(platform) == modes
            for mode in modes:
                _, kwargs = resolve(platform, mode)
                assert set(kwargs) == {"mcdram" if platform == "knl" else "edram"}
        with pytest.raises(ValueError, match="unknown platform 'vax'"):
            check_mode("vax")

    def test_baseline_first(self):
        assert all(modes[0] == "off" for modes in MODES.values())
        assert MODES["knl"] == tuple(m.value for m in McdramMode)

    def test_machines_and_keywords(self):
        assert resolve("broadwell", "on") == (broadwell(edram=True), {"edram": True})
        assert resolve("broadwell", "off") == (broadwell(edram=False), {"edram": False})
        assert resolve("skylake", "off") == (skylake(edram=False), {"edram": False})
        for mode in McdramMode:
            assert resolve("knl", mode.value) == (knl(mode), {"mcdram": mode})

    def test_each_machine_is_built_once_and_keywords_are_fresh(self):
        for platform, modes in MODES.items():
            for mode in modes:
                machine, kwargs = resolve(platform, mode)
                again, kwargs_again = resolve(platform, mode)
                assert again is machine
                assert kwargs_again == kwargs and kwargs_again is not kwargs

    def test_a_manifest_opened_after_the_first_call_lists_the_machine(self):
        machine, _ = resolve("knl", "flat")
        with telemetry.session():
            manifest = telemetry.start_manifest("probe", quick=True)
            assert resolve("knl", "flat")[0] is machine
            telemetry.finish_manifest(manifest)
        assert manifest.platform_spec_hashes == {
            machine.name: [telemetry.platform_spec_hash(machine)]
        }

    def test_opm_present_exactly_when_powered(self):
        """An eDRAM that is off is physically absent; MCDRAM never is."""
        for platform in ("broadwell", "skylake"):
            assert resolve(platform, "off")[0].opm is None
            assert resolve(platform, "on")[0].opm is not None
        for mode in MODES["knl"]:
            assert resolve("knl", mode)[0].opm is not None

    @pytest.mark.parametrize(
        "platform,mode,message",
        [
            ("vax", "on", "unknown platform 'vax'; choose from broadwell, skylake, knl"),
            (
                "broadwell",
                "flat",
                "unknown mode 'flat' for broadwell; choose from off, on",
            ),
            (
                "knl",
                "turbo",
                "unknown mode 'turbo' for knl; "
                "choose from off, cache, flat, hybrid, hybrid25",
            ),
        ],
    )
    def test_unknown_names_list_the_choices(self, platform, mode, message):
        with pytest.raises(ValueError) as exc:
            resolve(platform, mode)
        assert str(exc.value) == message
