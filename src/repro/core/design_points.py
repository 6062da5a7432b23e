"""The evaluated system design points (paper Section V).

Six designs, one factory each:

========== ===============================================================
DC-DLA     device-centric baseline (DGX-1V-style), PCIe gen3 virtualization
HC-DLA     host-centric (Summit-style), 3 links/device to a 300 GB/s socket
MC-DLA(S)  memory-centric, folded/star interconnect of Figure 7(b)
MC-DLA(L)  memory-centric ring of Figure 7(c), LOCAL page placement
MC-DLA(B)  memory-centric ring of Figure 7(c), BW_AWARE page placement
DC-DLA(O)  oracle: infinite device memory, no migration
========== ===============================================================

Sensitivity variants of Section V-B (PCIe gen4, TPUv2-class devices,
DGX-2-class nodes, cDMA compression) are parameterized on the same
factories.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.accelerator.device import BASELINE_DEVICE, DeviceSpec
from repro.core.system import CollectiveModel, SystemConfig, VmemModel
from repro.collectives.multi_ring import RingChannel
from repro.host.cpu import HYPOTHETICAL_HC, XEON, CpuSocketSpec
from repro.interconnect.builders import (NO_VMEM, VmemChannel, VmemTarget,
                                         build_dc_dla, build_hc_dla,
                                         build_mc_dla_ring,
                                         build_mc_dla_star)
from repro.interconnect.link import NVLINK, PCIE_GEN3, LinkSpec
from repro.memnode.memory_node import MemoryNodeSpec

#: Presentation order of Figure 11/13's x-axis.
DESIGN_ORDER = ("DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)",
                "DC-DLA(O)")


def dc_dla(n_devices: int = 8, device: DeviceSpec = BASELINE_DEVICE,
           link: LinkSpec = NVLINK, pcie: LinkSpec = PCIE_GEN3,
           compression: float = 1.0, shared_uplinks: bool = False,
           socket: CpuSocketSpec = XEON) -> SystemConfig:
    """Device-centric baseline; ``pcie``/``compression`` parameterize the
    gen4 and cDMA sensitivity studies, ``shared_uplinks`` the DGX-1-style
    PCIe-tree contention ablation."""
    if n_devices == 1:
        return single_device("DC-DLA-1dev", device, pcie,
                             compression=compression, socket=socket)
    topo = build_dc_dla(n_devices, link=link, pcie=pcie,
                        shared_uplinks=shared_uplinks)
    return SystemConfig(
        name="DC-DLA", device=device, n_devices=n_devices,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(topo.vmem, compression=compression),
        host_socket=socket)


def hc_dla(n_devices: int = 8,
           device: DeviceSpec = BASELINE_DEVICE,
           link: LinkSpec = NVLINK) -> SystemConfig:
    """Host-centric design with the hypothetical 300 GB/s socket."""
    topo = build_hc_dla(n_devices, link=link)
    return SystemConfig(
        name="HC-DLA", device=device, n_devices=n_devices,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(topo.vmem),
        host_socket=HYPOTHETICAL_HC)


def _mc_memory_node(link: LinkSpec) -> MemoryNodeSpec:
    return MemoryNodeSpec(link=link)


def mc_dla_star(n_devices: int = 8, device: DeviceSpec = BASELINE_DEVICE,
                link: LinkSpec = NVLINK) -> SystemConfig:
    """MC-DLA(S): the folded interconnect of Figure 7(b)."""
    topo = build_mc_dla_star(n_devices, link=link)
    node = _mc_memory_node(link)
    return SystemConfig(
        name="MC-DLA(S)", device=device, n_devices=n_devices,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(topo.vmem),
        memory_node=node)


def _mc_dla_ring(name: str, n_devices: int, device: DeviceSpec,
                 link: LinkSpec, local_policy: bool) -> SystemConfig:
    topo = build_mc_dla_ring(n_devices, link=link)
    node = _mc_memory_node(link)
    channel = topo.vmem
    if local_policy:
        # LOCAL placement reaches one neighbour only: N/2 links.
        channel = VmemChannel(VmemTarget.MEMORY_NODE,
                              peak_bw=channel.peak_bw / 2,
                              concurrent_bw=channel.concurrent_bw / 2)
    # The DIMMs cap each group at half the node's memory bandwidth.
    group_cap = node.group_memory_bw * 2  # two groups per device
    channel = VmemChannel(channel.target,
                          peak_bw=min(channel.peak_bw, group_cap),
                          concurrent_bw=min(channel.concurrent_bw,
                                            group_cap))
    return SystemConfig(
        name=name, device=device, n_devices=n_devices,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(channel),
        memory_node=node)


def mc_dla_local(n_devices: int = 8, device: DeviceSpec = BASELINE_DEVICE,
                 link: LinkSpec = NVLINK) -> SystemConfig:
    """MC-DLA(L): ring interconnect, LOCAL page-allocation policy."""
    return _mc_dla_ring("MC-DLA(L)", n_devices, device, link,
                        local_policy=True)


def mc_dla_bw(n_devices: int = 8, device: DeviceSpec = BASELINE_DEVICE,
              link: LinkSpec = NVLINK) -> SystemConfig:
    """MC-DLA(B): ring interconnect, BW_AWARE page-allocation policy."""
    return _mc_dla_ring("MC-DLA(B)", n_devices, device, link,
                        local_policy=False)


def dc_dla_oracle(n_devices: int = 8,
                  device: DeviceSpec = BASELINE_DEVICE,
                  link: LinkSpec = NVLINK) -> SystemConfig:
    """DC-DLA(O): unbuildable oracle with infinite device memory."""
    if n_devices == 1:
        return SystemConfig(
            name="DC-DLA(O)", device=device, n_devices=1,
            collectives=_trivial_collectives(),
            vmem=VmemModel(NO_VMEM))
    topo = build_dc_dla(n_devices, link=link)
    return SystemConfig(
        name="DC-DLA(O)", device=device, n_devices=n_devices,
        collectives=CollectiveModel.from_topology(topo),
        vmem=VmemModel(NO_VMEM))


def _trivial_collectives() -> CollectiveModel:
    """Placeholder channels for single-device configs (never exercised)."""
    return CollectiveModel(channels=(RingChannel(2, NVLINK.bidir_bw),))


def single_device(name: str, device: DeviceSpec,
                  pcie: LinkSpec = PCIE_GEN3, compression: float = 1.0,
                  socket: CpuSocketSpec = XEON) -> SystemConfig:
    """A one-device system virtualizing over PCIe (Figure 2's setup)."""
    channel = VmemChannel(VmemTarget.HOST, peak_bw=pcie.uni_bw,
                          concurrent_bw=pcie.uni_bw)
    return SystemConfig(
        name=name, device=device, n_devices=1,
        collectives=_trivial_collectives(),
        vmem=VmemModel(channel, compression=compression),
        host_socket=socket)


def single_device_oracle(name: str, device: DeviceSpec) -> SystemConfig:
    """A one-device system with no migration (Figure 2's ideal bar)."""
    return SystemConfig(
        name=name, device=device, n_devices=1,
        collectives=_trivial_collectives(),
        vmem=VmemModel(NO_VMEM))


_FACTORIES: dict[str, Callable[..., SystemConfig]] = {
    "DC-DLA": dc_dla,
    "HC-DLA": hc_dla,
    "MC-DLA(S)": mc_dla_star,
    "MC-DLA(L)": mc_dla_local,
    "MC-DLA(B)": mc_dla_bw,
    "DC-DLA(O)": dc_dla_oracle,
}


#: name -> built default config.  SystemConfig is frozen (as is every
#: model it aggregates), so one instance is safely shared by every
#: campaign cell; rebuilding the interconnect per cell shows up in
#: grid profiles.  Cleared by :func:`repro.core.pricing.clear_caches`.
_DEFAULT_BUILDS: dict[str, SystemConfig] = {}


def clear_design_point_cache() -> None:
    """Drop memoized default builds (cold-benchmark hygiene)."""
    _DEFAULT_BUILDS.clear()


def design_point(name: str, **kwargs) -> SystemConfig:
    """Build a design point by its Figure 11/13 name."""
    if not kwargs:
        built = _DEFAULT_BUILDS.get(name)
        if built is not None:
            return built
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown design point {name!r}; "
                       f"known: {', '.join(DESIGN_ORDER)}") from None
    config = factory(**kwargs)
    if not kwargs:
        _DEFAULT_BUILDS[name] = config
    return config


def all_design_points(**kwargs) -> list[SystemConfig]:
    """All six designs in presentation order."""
    return [design_point(name, **kwargs) for name in DESIGN_ORDER]
