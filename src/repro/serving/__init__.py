"""Inference-serving subsystem: traces, dynamic batching, SLO metrics.

The paper evaluates steady-state training iterations; this package
stresses the same six design points with the workload the ROADMAP's
north star actually names -- bursty multi-tenant request traffic:

* :mod:`repro.serving.traces` generates request-arrival traces
  (Poisson, bursty MMPP, replayed);
* :mod:`repro.serving.batcher` forms batches under a max-batch-size +
  max-wait-deadline policy, with a continuous-batching variant for the
  transformer workloads' decode phase;
* :mod:`repro.serving.server` drives per-batch forward-only
  simulations through :func:`repro.core.simulator.simulate` and folds
  the request ledger into :class:`repro.core.metrics.ServingStats`
  (p50/p95/p99, goodput under an SLO, tail amplification);
* :mod:`repro.serving.cli` is ``python -m repro serve``.

Campaigns sweep serving cells declared as
:class:`repro.scenarios.dsl.TrafficSpec` scenarios (``python -m repro
campaign --arrival-rates ...``), and
``experiments/serving_comparison.py`` replays the paper's six-design
comparison under rising load until SLO collapse.
"""
