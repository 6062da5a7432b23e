"""Tests for system composition and the design-point factories."""

import dataclasses

import pytest

from repro.accelerator.generations import TPUV2
from repro.collectives.multi_ring import RingChannel
from repro.collectives.ring_algorithm import Primitive
from repro.core.design_points import (DESIGN_ORDER, all_design_points,
                                      dc_dla, dc_dla_oracle, design_point,
                                      mc_dla_bw, mc_dla_local,
                                      mc_dla_star, single_device)
from repro.core.system import CollectiveModel, SystemConfig, VmemModel
from repro.interconnect.builders import NO_VMEM, VmemChannel, VmemTarget
from repro.interconnect.link import NVLINK2, PCIE_GEN4
from repro.units import GBPS, MB, TB


class TestVmemModel:
    def test_transfer_time(self):
        model = VmemModel(VmemChannel(VmemTarget.HOST, 16 * GBPS,
                                      8 * GBPS))
        t = model.transfer_time(16 * GBPS)
        assert t == pytest.approx(2.0 + model.dma_setup)
        assert model.transfer_time(16 * GBPS, contended_fraction=0.0) \
            == pytest.approx(1.0 + model.dma_setup)

    def test_compression_scales_traffic(self):
        plain = VmemModel(VmemChannel(VmemTarget.HOST, 16 * GBPS,
                                      16 * GBPS))
        cdma = VmemModel(plain.channel, compression=2.6)
        assert cdma.transfer_time(260 * MB) < plain.transfer_time(260 * MB)
        with pytest.raises(ValueError):
            VmemModel(plain.channel, compression=0.5)

    def test_oracle_channel_refuses_transfers(self):
        model = VmemModel(NO_VMEM)
        assert not model.enabled
        with pytest.raises(RuntimeError):
            model.transfer_time(1)

    def test_zero_bytes_free(self):
        model = VmemModel(VmemChannel(VmemTarget.HOST, GBPS, GBPS))
        assert model.transfer_time(0) == 0.0


class TestCollectiveModel:
    def test_times_positive_and_zero(self):
        model = CollectiveModel(channels=(RingChannel(8, 50 * GBPS),))
        assert model.time(Primitive.ALL_REDUCE, 8 * MB) > 0
        assert model.time(Primitive.ALL_REDUCE, 0) == 0.0

    def test_requires_channels(self):
        with pytest.raises(ValueError):
            CollectiveModel(channels=())


class TestDesignPoints:
    def test_six_designs_in_order(self):
        configs = all_design_points()
        assert [c.name for c in configs] == list(DESIGN_ORDER)

    def test_unknown_design_rejected(self):
        with pytest.raises(KeyError):
            design_point("XC-DLA")

    def test_fig7a_is_registered_outside_the_six(self):
        from repro.naming import resolve_design
        config = design_point("MC-DLA(7a)")
        assert (config.name, config.n_devices) == ("MC-DLA(7a)", 8)
        assert config.memory_node is not None
        assert "MC-DLA(7a)" not in DESIGN_ORDER
        assert resolve_design("mc-dla(7a)") == "MC-DLA(7a)"

    def test_dc_dla_defaults(self):
        config = dc_dla()
        assert config.uses_host_memory
        assert config.virtualizes
        assert config.host_socket is not None
        assert config.memory_node is None

    def test_oracle_has_no_migration(self):
        config = dc_dla_oracle()
        assert not config.virtualizes
        assert not config.uses_host_memory

    def test_mc_designs_use_memory_nodes(self):
        for factory in (mc_dla_star, mc_dla_local, mc_dla_bw):
            config = factory()
            assert config.memory_node is not None
            assert not config.uses_host_memory
            assert config.virtualizes

    def test_vmem_bandwidth_ladder(self):
        """The paper's bandwidth ordering: 16 < 50 < 75 <= 75 < 150."""
        bw = {name: design_point(name).vmem.channel.peak_bw
              for name in DESIGN_ORDER if name != "DC-DLA(O)"}
        assert bw["DC-DLA"] == 16 * GBPS
        assert bw["MC-DLA(S)"] == 50 * GBPS
        assert bw["MC-DLA(L)"] == 75 * GBPS
        assert bw["HC-DLA"] == 75 * GBPS
        assert bw["MC-DLA(B)"] == 150 * GBPS

    def test_mc_local_is_half_of_bw_aware(self):
        assert mc_dla_local().vmem.channel.peak_bw \
            == mc_dla_bw().vmem.channel.peak_bw / 2

    def test_total_memory_capacity_tens_of_tb(self):
        # 8 x 16 GB HBM + 8 x 1.25 TB memory-nodes ~ 10+ TB.
        assert mc_dla_bw().total_memory_capacity() > 10 * TB
        assert dc_dla().total_memory_capacity() == 8 * 16 * 1024 ** 3

    def test_device_override(self):
        config = mc_dla_bw(device=TPUV2)
        assert config.device.name == "TPUv2"

    def test_pcie_gen4_and_compression_options(self):
        gen4 = dc_dla(pcie=PCIE_GEN4)
        assert gen4.vmem.channel.peak_bw == 32 * GBPS
        cdma = dc_dla(compression=2.6)
        assert cdma.vmem.compression == 2.6

    def test_single_device_configs(self):
        config = single_device("solo", TPUV2)
        assert config.n_devices == 1
        assert config.virtualizes
        one_dev_dc = dc_dla(n_devices=1)
        assert one_dev_dc.n_devices == 1

    def test_dgx2_style_scaling(self):
        config = mc_dla_bw(n_devices=16, link=NVLINK2)
        assert config.n_devices == 16
        assert config.vmem.channel.peak_bw > mc_dla_bw().vmem.channel.peak_bw


class TestSystemConfigValidation:
    def test_requires_models(self):
        with pytest.raises(ValueError):
            SystemConfig(name="x", collectives=None, vmem=None)

    def test_rejects_bad_windows(self):
        base = dc_dla()
        with pytest.raises(ValueError):
            SystemConfig(name="x", collectives=base.collectives,
                         vmem=base.vmem, offload_window=0)
        with pytest.raises(ValueError):
            SystemConfig(name="x", collectives=base.collectives,
                         vmem=base.vmem, n_devices=0)

    def test_rejects_more_pipeline_stages_than_devices(self):
        config = design_point("MC-DLA(B)")
        with pytest.raises(ValueError,
                           match="pipeline_stages=16 exceeds n_devices=8"):
            dataclasses.replace(config, pipeline_stages=16)
        # One stage per device, and fewer stages than devices, stay legal.
        assert dataclasses.replace(config,
                                   pipeline_stages=8).pipeline_stages == 8
        assert dataclasses.replace(config,
                                   pipeline_stages=4).pipeline_stages == 4
