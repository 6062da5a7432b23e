"""Executable scenarios and claims: the paper's argument as code.

``repro.scenarios`` declares simulation cells as frozen DSL statements
(:mod:`~repro.scenarios.dsl`), binds expected relationships over their
metrics (:mod:`~repro.scenarios.claims`), executes them through the
campaign runner/cache (:mod:`~repro.scenarios.runner`), and renders
PASS/FAIL/ERROR verdict tables (:mod:`~repro.scenarios.verdict`).
The shipped suite (:mod:`~repro.scenarios.paper`) is runnable as
``python -m repro claims``.
"""
