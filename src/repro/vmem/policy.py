"""DAG-driven migration policy (paper Sections II-B, IV).

The runtime memory manager uses the network DAG's data dependencies to
decide, per feature map, one of three actions:

* ``OFFLOAD``  -- push to the backing store after its last forward reuse
  and prefetch it back before its backward use (vDNN-style memory
  overlaying).  Following the paper's stress-test methodology, every
  eligible tensor is offloaded regardless of whether it would fit.
* ``RECOMPUTE`` -- layers with short computation time (activations,
  pooling, ...) are recomputed during backpropagation instead of
  migrated (the MXNet optimization of footnote 4).
* ``RESIDENT`` -- stays in device memory (network inputs; or everything,
  when virtualization is disabled for oracle/scalability studies).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.graph import Network
from repro.dnn.layers import Layer, LayerKind
from repro.enums import Enum


class MigrationAction(Enum):
    OFFLOAD = "offload"
    RECOMPUTE = "recompute"
    RESIDENT = "resident"


@dataclass(frozen=True)
class TensorPlan:
    """Migration decision for one layer's output feature map."""

    producer: str          # layer whose output this plans
    nbytes: int
    action: MigrationAction
    #: Offload may start once this layer's forward pass completes.
    offload_after: str
    #: Prefetch must complete before this layer's *backward* pass (the
    #: topologically-last forward consumer is the first backward one).
    prefetch_before: str

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("negative tensor size")


@dataclass(frozen=True)
class MigrationPolicy:
    """Policy knobs for plan derivation."""

    #: Disable all migration (oracle device, scalability study).
    virtualize: bool = True
    #: Apply the recompute-cheap-layers optimization.
    recompute_cheap: bool = True

    def action(self, layer: Layer) -> MigrationAction:
        """The one keep/recompute/offload rule for ``layer``'s output.

        It reads only the layer's kind, never the batch, so a network's
        training step (:func:`repro.training.backprop.expand`) is built
        once for every batch size.
        """
        if layer.kind is LayerKind.INPUT or not self.virtualize:
            return MigrationAction.RESIDENT
        if self.recompute_cheap and layer.is_cheap:
            return MigrationAction.RECOMPUTE
        return MigrationAction.OFFLOAD

    def plan(self, net: Network, batch: int) -> list[TensorPlan]:
        """Derive per-tensor migration plans in topological order (the
        records the Table I runtime API executes; see
        :mod:`repro.vmem.manager`)."""
        plans = []
        for layer in net.layers:
            last_use = net.last_forward_consumer(layer.name)
            plans.append(TensorPlan(
                producer=layer.name, nbytes=layer.out_bytes(batch),
                action=self.action(layer), offload_after=last_use,
                prefetch_before=last_use))
        return plans


def offload_traffic_bytes(plans: list[TensorPlan]) -> int:
    """Bytes moved device -> backing store in one iteration."""
    return sum(p.nbytes for p in plans
               if p.action is MigrationAction.OFFLOAD)


def round_trip_traffic_bytes(plans: list[TensorPlan]) -> int:
    """Total migration bytes (offload + prefetch) per iteration."""
    return 2 * offload_traffic_bytes(plans)
