"""Runtime memory manager: turns a policy into an executable plan.

Combines the migration policy (:mod:`repro.vmem.policy`) with the
Table I runtime API (:mod:`repro.vmem.runtime_api`) so examples can
execute plans against the modeled address space, and exposes the plan
summary (tensor list, traffic totals, footprints) to them.  The system
simulator builds no such per-tensor records: it takes its training
step from :func:`repro.core.pricing.cached_migration`, which applies
the same rule (:meth:`~repro.vmem.policy.MigrationPolicy.action`) to
each layer once per network, for every batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.graph import Network
from repro.vmem.policy import (MigrationAction, MigrationPolicy, TensorPlan,
                               offload_traffic_bytes)
from repro.vmem.runtime_api import CopyDirection, DeviceRuntime, RemotePtr


@dataclass(frozen=True)
class MigrationPlan:
    """The manager's per-iteration plan for one network instance."""

    network: str
    batch: int
    tensors: tuple[TensorPlan, ...]

    @property
    def offloaded(self) -> tuple[TensorPlan, ...]:
        return tuple(t for t in self.tensors
                     if t.action is MigrationAction.OFFLOAD)

    @property
    def recomputed(self) -> tuple[TensorPlan, ...]:
        return tuple(t for t in self.tensors
                     if t.action is MigrationAction.RECOMPUTE)

    @property
    def offload_bytes(self) -> int:
        return offload_traffic_bytes(list(self.tensors))

    def tensor(self, producer: str) -> TensorPlan:
        for plan in self.tensors:
            if plan.producer == producer:
                return plan
        raise KeyError(f"no tensor plan for layer {producer!r}")


class MemoryManager:
    """vDNN-style runtime memory manager over the Table I API."""

    def __init__(self, policy: MigrationPolicy | None = None) -> None:
        self.policy = policy or MigrationPolicy()

    def plan(self, net: Network, batch: int) -> MigrationPlan:
        """Derive the iteration's migration plan from the DAG."""
        tensors = tuple(self.policy.plan(net, batch))
        return MigrationPlan(network=net.name, batch=batch, tensors=tensors)

    def execute_forward(self, plan: MigrationPlan,
                        runtime: DeviceRuntime) -> dict[str, RemotePtr]:
        """Run the forward pass's offloads against the runtime API.

        Allocates remote backing for every offloaded tensor and issues
        the LocalToRemote copies; returns the live pointers keyed by
        producer layer, for :meth:`execute_backward` to consume.
        """
        pointers: dict[str, RemotePtr] = {}
        local_scratch = 0  # modeled device-local source address
        for tensor in plan.offloaded:
            ptr = runtime.malloc_remote(tensor.nbytes)
            event = runtime.memcpy_async(
                src=local_scratch, dst=ptr.address, size=tensor.nbytes,
                direction=CopyDirection.LOCAL_TO_REMOTE)
            runtime.advance_clock(event.duration)
            pointers[tensor.producer] = ptr
        return pointers

    def execute_backward(self, plan: MigrationPlan, runtime: DeviceRuntime,
                         pointers: dict[str, RemotePtr]) -> None:
        """Prefetch every offloaded tensor back and free its backing."""
        local_scratch = 0
        for tensor in reversed(plan.offloaded):
            ptr = pointers.pop(tensor.producer)
            event = runtime.memcpy_async(
                src=ptr.address, dst=local_scratch, size=tensor.nbytes,
                direction=CopyDirection.REMOTE_TO_LOCAL)
            runtime.advance_clock(event.duration)
            runtime.free_remote(ptr)
        if pointers:
            raise ValueError(
                f"leaked remote tensors: {sorted(pointers)}")
