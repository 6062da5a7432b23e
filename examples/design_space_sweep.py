#!/usr/bin/env python3
"""Design-space sweep: all six design points over all eight benchmarks.

Reproduces the paper's Figure 13 view interactively: throughput of every
design normalized to the infinite-memory oracle, for data- and
model-parallel training, plus the harmonic-mean summary speedups.

The grid runs through the campaign engine, so it fans out across
worker processes and replays from the shared disk cache on a second
invocation.

Run:  python examples/design_space_sweep.py [batch] [--jobs N]
      [--cache-dir DIR | --no-cache]
"""

import argparse

from repro import BENCHMARK_NAMES, DESIGN_ORDER, harmonic_mean
from repro.campaign.cache import ResultCache, default_cache_dir
from repro.experiments.fig13_performance import run_fig13
from repro.experiments.matrix import compute_evaluation_matrix
from repro.training.parallel import ParallelStrategy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("batch", nargs="?", type=int, default=512)
    parser.add_argument("-j", "--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    args = parser.parse_args()

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir
                            else default_cache_dir())

    print(f"Sweeping {len(DESIGN_ORDER)} designs x "
          f"{len(BENCHMARK_NAMES)} workloads x 2 strategies "
          f"at batch {args.batch} (jobs={args.jobs}) ...\n")

    matrix = compute_evaluation_matrix(args.batch, jobs=args.jobs,
                                       cache=cache)
    fig13 = run_fig13(args.batch, matrix)

    for strategy, label in ((ParallelStrategy.DATA, "data-parallel"),
                            (ParallelStrategy.MODEL, "model-parallel")):
        print(f"== {label}: performance normalized to DC-DLA(O) ==")
        print(f"{'network':<12}" + "".join(f"{d:>11}"
                                           for d in DESIGN_ORDER))
        for network in BENCHMARK_NAMES:
            cells = "".join(
                f"{fig13.perf(strategy, network, d):>11.3f}"
                for d in DESIGN_ORDER)
            print(f"{network:<12}{cells}")
        speedup = fig13.mean_speedup("MC-DLA(B)", strategy)
        print(f"MC-DLA(B) harmonic-mean speedup over DC-DLA: "
              f"{speedup:.2f}x\n")

    overall = fig13.mean_speedup("MC-DLA(B)")
    print(f"Overall MC-DLA(B) speedup: {overall:.2f}x "
          f"(paper reports 2.8x)")

    # Iteration-time detail for the curious.
    times = [matrix.result("MC-DLA(B)", n,
                           ParallelStrategy.DATA).iteration_time
             for n in BENCHMARK_NAMES]
    fastest = BENCHMARK_NAMES[times.index(min(times))]
    print(f"Fastest workload on MC-DLA(B): {fastest} "
          f"({min(times) * 1e3:.1f} ms/iteration)")
    dp_fracs = [fig13.perf(ParallelStrategy.DATA, n, "MC-DLA(B)")
                for n in BENCHMARK_NAMES]
    print(f"Harmonic-mean DP oracle fraction: "
          f"{harmonic_mean(dp_fracs) * 100:.0f}%")


if __name__ == "__main__":
    main()
