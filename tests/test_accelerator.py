"""Tests for the device-node compute model (paper Table II, Figure 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.accelerator.device import BASELINE_DEVICE, DeviceSpec
from repro.accelerator.generations import (GENERATIONS, KEPLER, TPUV2,
                                           VOLTA, generation)
from repro.accelerator.hbm import HBM_900, MemorySpec
from repro.accelerator.pe_array import PeArraySpec
from repro.dnn.registry import build_network
from repro.dnn.shapes import Gemm
from repro.units import GB, GBPS


class TestMemorySpec:
    def test_table_ii_hbm(self):
        assert HBM_900.bandwidth == 900 * GBPS
        assert HBM_900.access_latency_cycles == 100
        assert HBM_900.capacity == 16 * GB

    def test_access_latency_at_clock(self):
        assert HBM_900.access_latency(1e9) == pytest.approx(100e-9)

    def test_stream_time(self):
        t = HBM_900.stream_time(900 * GBPS, 1e9)
        assert t == pytest.approx(1.0 + 100e-9)
        assert HBM_900.stream_time(0, 1e9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorySpec("m", bandwidth=0, access_latency_cycles=0,
                       capacity=1)
        with pytest.raises(ValueError):
            HBM_900.stream_time(-1, 1e9)
        with pytest.raises(ValueError):
            HBM_900.access_latency(0)


class TestPeArray:
    def test_table_ii_peak(self):
        pe = PeArraySpec()
        assert pe.peak_macs_per_cycle == 1024 * 125
        assert pe.peak_macs_per_sec == 128e12

    def test_compute_cycles_tiling(self):
        pe = PeArraySpec(pe_count=4, macs_per_pe=10, frequency=1e9)
        # 8 outputs over 4 PEs = 2 each; K=25 -> 3 vector steps.
        assert pe.gemm_compute_cycles(Gemm(2, 4, 25)) == 2 * 3

    def test_utilization_perfect_when_divisible(self):
        pe = PeArraySpec(pe_count=4, macs_per_pe=10, frequency=1e9)
        assert pe.gemm_utilization(Gemm(2, 2, 10)) == pytest.approx(1.0)

    def test_utilization_drops_for_small_gemms(self):
        pe = PeArraySpec()
        small = pe.gemm_utilization(Gemm(8, 8, 8))
        large = pe.gemm_utilization(Gemm(4096, 512, 1000))
        assert small < 0.05 < large

    def test_gemm_traffic(self):
        pe = PeArraySpec()
        g = Gemm(10, 20, 30)
        assert pe.gemm_traffic_bytes(g) == 4 * (300 + 600 + 200)

    def test_gemm_traffic_removes_im2col_duplication(self):
        pe = PeArraySpec()
        g = Gemm(100, 20, 90, a_reuse=9)
        assert pe.gemm_traffic_bytes(g) \
            == 4 * (100 * 90 // 9 + 90 * 20 + 100 * 20)

    def test_roofline_compute_vs_memory_bound(self):
        pe = PeArraySpec()
        # Square-ish conv GEMM (3x3 kernel): compute-bound at 900 GB/s.
        conv = Gemm(512 * 196, 512, 1152, a_reuse=9)
        compute = pe.gemm_compute_cycles(conv) / pe.frequency
        assert pe.gemm_time(conv, HBM_900) == pytest.approx(
            pe.launch_overhead + compute)
        # Skinny FC GEMM: memory-bound (weights dominate).
        fc = Gemm(64, 4096, 25088)
        memory = HBM_900.stream_time(pe.gemm_traffic_bytes(fc),
                                     pe.frequency)
        assert pe.gemm_time(fc, HBM_900) == pytest.approx(
            pe.launch_overhead + memory)

    def test_stream_time_zero(self):
        assert PeArraySpec().stream_time(0, HBM_900) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PeArraySpec(pe_count=0)
        with pytest.raises(ValueError):
            PeArraySpec(frequency=0)
        with pytest.raises(ValueError):
            PeArraySpec().stream_time(-1, HBM_900)

    @given(st.integers(min_value=1, max_value=2048),
           st.integers(min_value=1, max_value=2048),
           st.integers(min_value=1, max_value=4096))
    def test_utilization_bounded(self, m, n, k):
        util = PeArraySpec().gemm_utilization(Gemm(m, n, k))
        assert 0.0 < util <= 1.0


class TestDeviceSpec:
    def test_baseline_matches_table_ii(self):
        assert BASELINE_DEVICE.peak_macs_per_sec == 128e12
        assert BASELINE_DEVICE.n_links == 6
        assert BASELINE_DEVICE.aggregate_link_bw == 150 * GBPS
        assert BASELINE_DEVICE.memory_capacity == 16 * GB

    def test_layer_timing_positive(self):
        net = build_network("AlexNet")
        conv1 = net.layer("conv1")
        stream = conv1.fwd_stream_bytes(64)
        fwd = BASELINE_DEVICE.op_time(conv1.fwd_gemms(64), stream)
        bwd = BASELINE_DEVICE.op_time(conv1.bwd_gemms(64), stream)
        assert 0 < fwd < bwd

    def test_backward_costs_about_twice_forward(self):
        net = build_network("VGG-E")
        conv = net.layer("conv3_1")
        stream = conv.fwd_stream_bytes(64)
        fwd = BASELINE_DEVICE.op_time(conv.fwd_gemms(64), stream)
        bwd = BASELINE_DEVICE.op_time(conv.bwd_gemms(64), stream)
        assert 1.5 * fwd < bwd < 2.5 * fwd

    def test_op_time_empty_is_free(self):
        assert BASELINE_DEVICE.op_time([], 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(n_links=0)


class TestGenerations:
    def test_five_generations_ordered_by_throughput(self):
        peaks = [g.peak_macs_per_sec for g in GENERATIONS]
        assert peaks == sorted(peaks)
        assert len(GENERATIONS) == 5

    def test_kepler_to_tpuv2_gap(self):
        ratio = TPUV2.peak_macs_per_sec / KEPLER.peak_macs_per_sec
        assert 30 < ratio < 50

    def test_volta_is_the_baseline_device(self):
        assert VOLTA.peak_macs_per_sec \
            == BASELINE_DEVICE.peak_macs_per_sec
        assert VOLTA.hbm.bandwidth == 900 * GBPS

    def test_lookup_by_name(self):
        assert generation("volta") is VOLTA
        with pytest.raises(KeyError):
            generation("Turing")

    def test_newer_devices_run_layers_faster(self):
        net = build_network("VGG-E")
        conv = net.layer("conv3_1")
        times = [g.op_time(conv.fwd_gemms(64), conv.fwd_stream_bytes(64))
                 for g in GENERATIONS]
        assert times == sorted(times, reverse=True)
