"""Training-step structure: forward/backward expansion of the DAG.

A training iteration (Section II-A) runs forward propagation through
the layers in topological order, then backpropagation in reverse,
deriving dX and dW per layer.  :class:`TrainingStep` materializes that
order along with the offload, prefetch and recompute sites the
migration policy introduces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.graph import Network
from repro.dnn.layers import LayerKind
from repro.vmem.policy import MigrationAction, MigrationPolicy


@dataclass(frozen=True)
class TrainingStep:
    """Deterministic op orders of one iteration over a network."""

    network: str
    fwd_order: tuple[str, ...]
    bwd_order: tuple[str, ...]
    #: backward layer -> cheap layers recomputed just before it.
    recompute_sites: dict[str, tuple[str, ...]]
    #: backward layer -> offloaded tensors prefetched for it (and
    #: offloaded after its forward pass).
    prefetch_sites: dict[str, tuple[str, ...]]
    #: Producers of the offloaded tensors, in layer order.
    offloaded: tuple[str, ...]

    @property
    def depth(self) -> int:
        return len(self.fwd_order)


def expand(net: Network, policy: MigrationPolicy) -> TrainingStep:
    """Expand a network under a migration policy into a training step.

    Forward order is the DAG's topological order; backward order is its
    reverse, skipping the input pseudo-layer.  Each tensor the policy's
    :meth:`~repro.vmem.policy.MigrationPolicy.action` offloads is
    offloaded after the forward pass of its topologically-last forward
    consumer and prefetched before that layer's backward pass (its
    *first* backward use); each recomputed tensor is regenerated at the
    same point.  Nothing here reads the batch, so one step serves every
    batch size.
    """
    layers = net.layers
    prefetch: dict[str, list[str]] = {}
    recompute: dict[str, list[str]] = {}
    offloaded = []
    for layer in layers:
        action = policy.action(layer)
        if action is MigrationAction.RESIDENT:
            continue
        name = layer.name
        last_use = net.last_forward_consumer(name)
        if action is MigrationAction.OFFLOAD:
            prefetch.setdefault(last_use, []).append(name)
            offloaded.append(name)
        else:
            recompute.setdefault(last_use, []).append(name)

    return TrainingStep(
        network=net.name,
        fwd_order=tuple(layer.name for layer in layers),
        bwd_order=tuple(layer.name for layer in reversed(layers)
                        if layer.kind is not LayerKind.INPUT),
        recompute_sites={k: tuple(v) for k, v in recompute.items()},
        prefetch_sites={k: tuple(v) for k, v in prefetch.items()},
        offloaded=tuple(offloaded),
    )
