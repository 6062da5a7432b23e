"""repro.faults: seeded, deterministic fault injection + recovery.

A :class:`~repro.faults.model.FaultModel` names a failure scenario --
link flaps, standing link derating, straggler devices, memory-node
loss -- plus the recovery knobs (serving shed/timeout multipliers,
cluster retry backoff).  :mod:`repro.faults.lowering` re-prices an
ordinary :class:`~repro.core.system.SystemConfig` under a model, so
the engines never grow fault-specific pricing math, and the ``"none"``
model is provably inert: lowering it is the identity and every healthy
run stays byte-identical.

Select a model with ``SystemConfig(fault_model="storm")``, the
``--fault-models`` campaign axis, or ``python -m repro faults``.
"""
