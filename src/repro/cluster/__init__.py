"""Multi-job cluster scheduling over a shared disaggregated pool.

The paper argues memory-centric pooling pays off when *many*
accelerators share capacity; every other harness in this repo runs one
job at a time.  This package closes that gap with a deterministic,
seeded discrete-event cluster simulator: a fleet of devices shares one
MC-DLA memory pool while a queue of heterogeneous jobs -- training
runs, pipeline gangs, and serving tenants -- arrives over time.

* :mod:`repro.cluster.jobs` -- job specs, seeded job-mix streams, and
  a cluster cell's defaults and policy names;
* :mod:`repro.cluster.oracle` -- prices each job's gang width, service
  time, and pool reservation with one ``simulate()`` call;
* :mod:`repro.cluster.pool` -- pool admission control,
  oversubscription, and spill-slowdown pricing;
* :mod:`repro.cluster.policies` -- FIFO, SJF, memory-pool-aware
  best-fit, and gang scheduling with EASY backfill;
* :mod:`repro.cluster.simulator` -- the event loop (arrivals,
  completions, preemption with checkpoint/restore as pool traffic)
  folding into :class:`repro.core.metrics.ClusterStats`;
* :mod:`repro.cluster.cli` -- ``python -m repro cluster``.

Campaigns sweep cluster cells declared as
:class:`repro.scenarios.dsl.FleetSpec` scenarios (``python -m repro
campaign --policies ...``), and
``experiments/cluster_comparison.py`` compares policies across all six
designs at equal pool capacity.  The package imports none of its
submodules, so a caller that needs only the defaults
(:mod:`repro.cluster.jobs`) does not load the scheduler.
"""
