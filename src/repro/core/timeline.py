"""Engine-level timeline vocabulary.

Each device-node runs four engines concurrently (the paper's simulator
overlaps computation with synchronization and memory virtualization,
Figure 11's caption):

* ``COMPUTE`` -- the PE array (forward/backward/recompute kernels);
* ``DMA_OUT`` -- offload copies to the backing store;
* ``DMA_IN``  -- prefetch copies back (links are full duplex);
* ``COMM``    -- collective operations on the ring networks.

Ops declare dependencies; every engine executes its ops in issue order.
The scheduler (:func:`repro.core.optable.schedule_ops`) is a
deterministic list scheduler: an op starts when its engine is free and
all dependencies have finished.  Because the evaluated workloads are
SPMD-symmetric across devices, one device's timeline (with collectives
priced at full-system cost) is the node's.

Pipeline-parallel training breaks that symmetry: each stage is a
different device doing different work.  Ops therefore carry a
``channel`` index -- channel *c* owns a private instance of each of the
four engines (stage *c*'s device) -- and one op table can hold a whole
pipeline's asymmetric timeline.  SPMD schedules simply leave every op
on channel 0.

:class:`Op` and :class:`ScheduledOp` are per-op views of a scheduled
:class:`~repro.core.optable.OpTable`, materialized on demand for trace
export and tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EngineKind(enum.Enum):
    """The four concurrent engines of one device-node."""

    COMPUTE = "compute"
    DMA_OUT = "dma-out"
    DMA_IN = "dma-in"
    COMM = "comm"


@dataclass(frozen=True)
class Op:
    """One schedulable operation.

    ``duration`` is seconds, ``nbytes`` the payload bytes the op moves
    (0 for pure compute), and ``deps`` uids of earlier ops that must
    finish before this one starts.
    """

    uid: int
    engine: EngineKind
    duration: float
    deps: tuple[int, ...]
    tag: str
    nbytes: int = 0
    #: Engine instance: ops on different channels run concurrently even
    #: on the same :class:`EngineKind` (pipeline stages; 0 = SPMD).
    channel: int = 0


@dataclass(frozen=True)
class ScheduledOp:
    op: Op
    start: float
    finish: float
