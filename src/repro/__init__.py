"""repro: a memory-centric HPC system simulator for deep learning.

Reproduction of Kwon & Rhu, "Beyond the Memory Wall: A Case for
Memory-centric HPC System for Deep Learning" (MICRO-51, 2018).

Public API quickstart::

    from repro import simulate, design_point, ParallelStrategy

    dc = design_point("DC-DLA")
    mc = design_point("MC-DLA(B)")
    base = simulate(dc, "VGG-E", batch=512, strategy=ParallelStrategy.DATA)
    ours = simulate(mc, "VGG-E", batch=512, strategy=ParallelStrategy.DATA)
    print(f"speedup: {ours.speedup_over(base):.2f}x")

Each public name loads its defining module on first use (PEP 562), so
``import repro`` and ``python -m repro list`` import no simulator.
"""

__version__ = "1.1.0"

#: Each public name and the module that defines it.
_HOMES = {
    "BENCHMARK_NAMES": "repro.dnn.registry",
    "DESIGN_ORDER": "repro.core.design_points",
    "LatencyBreakdown": "repro.core.metrics",
    "Network": "repro.dnn.graph",
    "ParallelStrategy": "repro.training.parallel",
    "PipelineStats": "repro.core.metrics",
    "SimulationResult": "repro.core.metrics",
    "SystemConfig": "repro.core.system",
    "WORKLOAD_NAMES": "repro.dnn.registry",
    "all_design_points": "repro.core.design_points",
    "build_network": "repro.dnn.registry",
    "design_point": "repro.core.design_points",
    "harmonic_mean": "repro.units",
    "host_bandwidth_usage": "repro.core.simulator",
    "simulate": "repro.core.simulator",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(home), name)
    globals()[name] = value
    return value
