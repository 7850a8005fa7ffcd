"""Power/energy model and Equation (1)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import estimate
from repro.engine.exectime import RunResult
from repro.kernels import GemmKernel, StreamKernel
from repro.platforms import McdramMode, broadwell, knl
from repro.power import (
    PowerSample,
    breakeven_gain,
    compare,
    energy_delay_product,
    energy_ratio,
    measure,
)


def _run(machine, kernel, **kw):
    return estimate(kernel.profile(), machine, **kw)


class TestPowerSample:
    def test_edram_off_saves_static_power(self):
        m_on = broadwell(edram=True)
        m_off = broadwell(edram=False)
        k = GemmKernel(order=4096, tile=256)
        s_on = measure(_run(m_on, k, edram=True), m_on)
        s_off = measure(_run(m_off, k, edram=False), m_off)
        assert s_on.package_w > s_off.package_w

    def test_mcdram_static_power_always_present(self):
        """Paper Section 5.2: MCDRAM cannot be physically disabled."""
        machine = knl()
        k = StreamKernel(n=2**26)
        s_ddr = measure(_run(machine, k, mcdram=McdramMode.OFF), machine)
        base = machine.base_package_power_w
        assert s_ddr.package_w > base  # static MCDRAM draw included

    def test_opm_use_can_reduce_dram_power(self):
        """Paper Figure 27: flat-mode MCDRAM absorbs DDR traffic."""
        machine = knl()
        k = StreamKernel(n=2**27)
        s_flat = measure(_run(machine, k, mcdram=McdramMode.FLAT), machine)
        s_ddr = measure(_run(machine, k, mcdram=McdramMode.OFF), machine)
        assert s_flat.dram_w < s_ddr.dram_w

    def test_energy_accounting(self):
        s = PowerSample(kernel="x", machine="m", package_w=50.0, dram_w=5.0, seconds=2.0)
        assert s.total_w == 55.0
        assert s.energy_j == 110.0

    def test_higher_throughput_higher_package_power(self):
        machine = broadwell()
        fast = measure(_run(machine, GemmKernel(order=8192, tile=512), edram=True), machine)
        slow = measure(
            _run(machine, StreamKernel(n=2**27), edram=True), machine
        )
        assert fast.package_w > slow.package_w

    def test_opm_utilization_clamps_at_bandwidth(self):
        """OPM traffic beyond the link's bandwidth cannot add power."""
        machine = broadwell(edram=True)
        base = RunResult(
            kernel="synthetic",
            machine=machine.name,
            seconds=1.0,
            gflops=0.0,
            bound="bandwidth",
            phases=(),
            opm_bytes=machine.opm.bandwidth * 1e9,  # exactly saturated
            dram_bytes=0.0,
        )
        oversub = dataclasses.replace(base, opm_bytes=base.opm_bytes * 100)
        at_peak = measure(base, machine, achieved_fraction=0.0)
        beyond = measure(oversub, machine, achieved_fraction=0.0)
        assert beyond.package_w == pytest.approx(at_peak.package_w)
        expected = (
            machine.base_package_power_w
            + machine.opm.static_power_w
            + machine.opm.active_power_w  # utilization clamped to 1.0
        )
        assert at_peak.package_w == pytest.approx(expected)

    def test_dram_rate_clamps_at_bandwidth(self):
        machine = broadwell(edram=False)
        base = RunResult(
            kernel="synthetic",
            machine=machine.name,
            seconds=1.0,
            gflops=0.0,
            bound="bandwidth",
            phases=(),
            opm_bytes=0.0,
            dram_bytes=machine.dram.bandwidth * 1e9,
        )
        oversub = dataclasses.replace(base, dram_bytes=base.dram_bytes * 50)
        assert measure(oversub, machine).dram_w == (
            pytest.approx(measure(base, machine).dram_w)
        )


class TestEquationOne:
    def test_breakeven_at_p_equals_w(self):
        assert energy_ratio(0.086, 0.086) == pytest.approx(1.0)

    def test_saves_energy_when_gain_exceeds_power(self):
        assert energy_ratio(0.20, 0.086) < 1.0
        assert energy_ratio(0.02, 0.086) > 1.0

    def test_breakeven_gain(self):
        assert breakeven_gain(0.069) == 0.069

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            energy_ratio(-1.0, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(-0.5, 5.0),
        w=st.floats(-0.5, 2.0),
    )
    def test_property_ratio_below_one_iff_p_above_w(self, p, w):
        ratio = energy_ratio(p, w)
        if p > w:
            assert ratio < 1.0 + 1e-12
        elif p < w:
            assert ratio > 1.0 - 1e-12

    def test_compare_builds_comparison(self):
        a = PowerSample("k", "m", 60.0, 5.0, 1.0)
        b = PowerSample("k", "m", 55.0, 5.0, 1.3)
        cmp = compare(a, b)
        assert cmp.perf_gain == pytest.approx(0.3)
        assert cmp.power_increase == pytest.approx(65.0 / 60.0 - 1.0)
        assert cmp.saves_energy == (cmp.energy_ratio < 1.0)

    def test_compare_rejects_mismatched_kernels(self):
        a = PowerSample("k1", "m", 60.0, 5.0, 1.0)
        b = PowerSample("k2", "m", 55.0, 5.0, 1.3)
        with pytest.raises(ValueError):
            compare(a, b)

    def test_compare_rejects_zero_seconds(self):
        good = PowerSample("k", "m", 60.0, 5.0, 1.0)
        degenerate = PowerSample("k", "m", 55.0, 5.0, 0.0)
        with pytest.raises(ValueError, match="seconds"):
            compare(good, degenerate)
        with pytest.raises(ValueError, match="seconds"):
            compare(degenerate, good)

    def test_compare_rejects_zero_power(self):
        good = PowerSample("k", "m", 60.0, 5.0, 1.0)
        unpowered = PowerSample("k", "m", 0.0, 0.0, 1.3)
        with pytest.raises(ValueError, match="power"):
            compare(good, unpowered)

    @settings(max_examples=80, deadline=None)
    @given(
        pkg_with=st.floats(30.0, 200.0),
        seconds_with=st.floats(0.1, 10.0),
        seconds_without=st.floats(0.1, 10.0),
    )
    def test_eq1_law_saves_energy_iff_gain_beats_power(
        self, pkg_with, seconds_with, seconds_without
    ):
        """Eq. (1): saves_energy <=> perf_gain > power_increase."""
        without = PowerSample("k", "m", 60.0, 5.0, seconds_without)
        with_opm = PowerSample("k", "m", pkg_with, 5.0, seconds_with)
        cmp = compare(with_opm, without)
        if abs(cmp.perf_gain - cmp.power_increase) > 1e-9:
            assert cmp.saves_energy == (
                cmp.perf_gain > cmp.power_increase
            )


class TestEdp:
    def test_edp(self):
        s = PowerSample("k", "m", 50.0, 0.0, 2.0)
        assert energy_delay_product(s) == pytest.approx(100.0 * 2.0)
        assert energy_delay_product(s, exponent=2) == pytest.approx(100.0 * 4.0)

    def test_invalid_exponent(self):
        s = PowerSample("k", "m", 50.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            energy_delay_product(s, exponent=0)
