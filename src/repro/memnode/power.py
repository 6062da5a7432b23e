"""System-level power accounting (paper Section V-C, Table IV).

MC-DLA reuses existing accelerators as-is, so its power overhead is the
memory-nodes added to the rings.  The baseline is NVIDIA's DGX (3200 W
TDP, of which the eight 300 W V100s are 75%); Microsoft's HGX-1 chassis
reaches 9600 W, which bounds what a 4U enclosure can host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memnode.dimm import DIMM_CATALOG, DimmSpec
from repro.memnode.memory_node import MemoryNodeSpec, node_with_dimm
from repro.units import TB

#: DGX-1V system TDP.
DGX_SYSTEM_TDP_W = 3200.0


@dataclass(frozen=True)
class PowerReport:
    """Power/perf summary of an MC-DLA build-out with one DIMM type."""

    dimm: DimmSpec
    node_tdp_w: float
    node_gb_per_watt: float
    system_tdp_w: float
    system_overhead: float        # fractional increase over DGX
    added_capacity_bytes: int

    @property
    def added_capacity_tb(self) -> float:
        return self.added_capacity_bytes / TB


def memory_node_power(dimm: DimmSpec, n_nodes: int = 8,
                      n_dimms: int = 10) -> PowerReport:
    """Table IV row + system-level overhead for ``n_nodes`` nodes."""
    if n_nodes <= 0:
        raise ValueError("need at least one memory-node")
    node = node_with_dimm(dimm, n_dimms)
    added_w = node.tdp_watts * n_nodes
    system_w = DGX_SYSTEM_TDP_W + added_w
    return PowerReport(
        dimm=dimm,
        node_tdp_w=node.tdp_watts,
        node_gb_per_watt=node.gb_per_watt,
        system_tdp_w=system_w,
        system_overhead=added_w / DGX_SYSTEM_TDP_W,
        added_capacity_bytes=node.capacity * n_nodes,
    )


def table_iv() -> list[PowerReport]:
    """All Table IV rows, in catalog (capacity) order."""
    return [memory_node_power(dimm) for dimm in DIMM_CATALOG]


def perf_per_watt_gain(speedup: float, dimm: DimmSpec,
                       n_nodes: int = 8) -> float:
    """Performance-per-watt improvement of MC-DLA over DC-DLA.

    Section V-C: a 2.8x speedup against a 7% (8 GB RDIMM) to 31%
    (128 GB LRDIMM) system power increase yields 2.6x to 2.1x perf/W.
    """
    if speedup <= 0:
        raise ValueError("speedup must be positive")
    report = memory_node_power(dimm, n_nodes)
    return speedup / (1.0 + report.system_overhead)


def max_pool_capacity(node: MemoryNodeSpec, n_nodes: int = 8) -> int:
    """System-wide added memory pool (10.4 TB with 128 GB LRDIMMs)."""
    if n_nodes <= 0:
        raise ValueError("need at least one memory-node")
    return node.capacity * n_nodes
