"""Tests for the extension modules: scale-out plane, the video
workload, and the CLI."""

import pytest

from repro.dnn.models.video import VideoSpec, build_video_net
from repro.interconnect.switch import (ScaleOutPlane, SwitchSpec,
                                       datacenter_plane)
from repro.units import GB, GBPS


class TestSwitchSpec:
    def test_nvswitch_defaults(self):
        spec = SwitchSpec()
        assert spec.radix == 18
        assert spec.port_bw == 25 * GBPS

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchSpec(radix=1)
        with pytest.raises(ValueError):
            SwitchSpec(port_bw=0)


class TestScaleOutPlane:
    def test_datacenter_plane_counts(self):
        plane = datacenter_plane(4)
        assert plane.n_devices == 32
        assert plane.n_memory_nodes == 32
        assert plane.total_nodes == 64
        assert plane.total_plane_ports == 64 * 3

    def test_switch_provisioning(self):
        plane = datacenter_plane(1)
        # 16 nodes x 3 links = 48 ports / radix 18 -> 3 switches.
        assert plane.switches_needed == 3

    def test_ring_channels_span_all_nodes(self):
        plane = datacenter_plane(2)
        channels = plane.ring_channels()
        assert len(channels) == 3
        assert all(c.size == plane.total_nodes for c in channels)

    def test_collective_spec_adds_switch_hop(self):
        plane = datacenter_plane(1)
        spec = plane.collective_spec()
        assert spec.hop_latency > plane.link.latency

    def test_vmem_bandwidth_balanced_plane(self):
        # Equal device/memory counts: device-side links are the bound.
        plane = datacenter_plane(4)
        assert plane.vmem_bandwidth_per_device() == 75 * GBPS

    def test_vmem_bandwidth_memory_starved_plane(self):
        plane = ScaleOutPlane(n_devices=16, n_memory_nodes=4)
        # 4 nodes x 3 links x 25 GB/s shared by 16 devices.
        assert plane.vmem_bandwidth_per_device() \
            == pytest.approx(4 * 75 * GBPS / 16)

    def test_no_memory_nodes_no_vmem(self):
        plane = ScaleOutPlane(n_devices=8, n_memory_nodes=0)
        assert plane.vmem_bandwidth_per_device() == 0.0

    def test_pooled_capacity(self):
        plane = datacenter_plane(2)
        assert plane.pooled_capacity(1280 * GB) == 16 * 1280 * GB
        with pytest.raises(ValueError):
            plane.pooled_capacity(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOutPlane(n_devices=1, n_memory_nodes=0)
        with pytest.raises(ValueError):
            ScaleOutPlane(n_devices=8, n_memory_nodes=-1)
        with pytest.raises(ValueError):
            datacenter_plane(0)


class TestVideoWorkload:
    def test_structure(self):
        net = build_video_net(VideoSpec(frames=4))
        assert net.validate() is None
        cells = [l for l in net.layers if l.is_recurrent]
        assert len(cells) == 4 + 20  # encoder + decoder timesteps

    def test_footprint_scales_with_frames(self):
        short = build_video_net(VideoSpec(frames=4))
        long = build_video_net(VideoSpec(frames=8))
        assert long.training_footprint_bytes(64) \
            > 1.5 * short.training_footprint_bytes(64)

    def test_exceeds_capacity_wall(self):
        net = build_video_net(VideoSpec(frames=16))
        assert net.training_footprint_bytes(64) > 16 * GB

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoSpec(frames=0)


class TestCli:
    def test_list_and_unknown(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        assert "fig13" in capsys.readouterr().out
        assert main(["not-an-experiment"]) == 2

    def test_runs_a_cheap_experiment(self, capsys):
        from repro.__main__ import main
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "BW_AWARE" in out and "2.00x" in out
