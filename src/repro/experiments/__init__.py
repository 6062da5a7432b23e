"""Experiment harness: one module per paper table/figure.

Import each study from its own module (``repro.experiments.fig13_
performance``, ``repro.experiments.sensitivity``, ...); the package
itself imports none of them, so a module that only needs
:mod:`repro.experiments.report` loads no study.
"""
