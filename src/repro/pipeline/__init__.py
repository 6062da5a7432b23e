"""Pipeline-parallel training: stage partitioning, microbatch
schedules, and their lowering onto the engine-level timeline.

Quickstart::

    from repro import simulate, design_point, ParallelStrategy

    result = simulate(design_point("MC-DLA(B)"), "GPT2", batch=64,
                      strategy=ParallelStrategy.PIPELINE)
    print(result.pipeline.bubble_fraction)

The schedule (``"gpipe"``, ``"1f1b"``, or the zero-bubble kinds
``"zb-h1"`` / ``"interleaved"`` / ``"zb-auto"``), pipeline depth, and
microbatch count are :class:`~repro.core.system.SystemConfig` fields
(``pipeline_schedule`` / ``pipeline_stages`` /
``pipeline_microbatches``), so campaigns sweep them through ordinary
``replacements``.
"""
