"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro fig13
    python -m repro all
    python -m repro campaign --jobs 8 --networks VGG-E
    python -m repro bench --quick
    python -m repro trace "MC-DLA(B)" GPT2 --strategy pipeline
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable


def _fig2() -> str:
    from repro.experiments.fig2_motivation import format_fig2, run_fig2
    return format_fig2(run_fig2())


def _fig9() -> str:
    from repro.experiments.fig9_collectives import format_fig9, run_fig9
    return format_fig9(run_fig9())


def _fig10() -> str:
    from repro.experiments.fig10_allocation import (format_fig10,
                                                    run_fig10)
    return format_fig10(run_fig10())


def _fig11() -> str:
    from repro.experiments.fig11_breakdown import format_fig11, run_fig11
    from repro.training.parallel import ParallelStrategy
    return (format_fig11(run_fig11(ParallelStrategy.DATA)) + "\n\n"
            + format_fig11(run_fig11(ParallelStrategy.MODEL)))


def _fig12() -> str:
    from repro.experiments.fig12_cpu_bandwidth import (format_fig12,
                                                       run_fig12)
    return format_fig12(run_fig12())


def _fig13() -> str:
    from repro.experiments.fig13_performance import (format_fig13,
                                                     run_fig13)
    return format_fig13(run_fig13())


def _fig14() -> str:
    from repro.experiments.fig14_batch_sensitivity import (format_fig14,
                                                           run_fig14)
    return format_fig14(run_fig14())


def _tab4() -> str:
    from repro.experiments.tab4_power import format_tab4, run_tab4
    return format_tab4(run_tab4())


def _scalability() -> str:
    from repro.experiments.scalability import (format_scalability,
                                               run_scalability)
    return format_scalability(run_scalability())


def _sensitivity() -> str:
    from repro.experiments.sensitivity import (format_sensitivity,
                                               run_sensitivity)
    return format_sensitivity(run_sensitivity())


def _ablations() -> str:
    from repro.experiments.ablations import format_ablations, run_ablations
    return format_ablations(run_ablations())


def _productivity() -> str:
    from repro.experiments.user_productivity import (
        format_user_productivity, run_user_productivity)
    return format_user_productivity(run_user_productivity())


def _scaleout() -> str:
    from repro.experiments.scaleout import format_scaleout, run_scaleout
    return format_scaleout(run_scaleout())


def _pipeline() -> str:
    from repro.experiments.pipeline_comparison import (
        format_pipeline_comparison, run_pipeline_comparison)
    return format_pipeline_comparison(run_pipeline_comparison())


def _serving() -> str:
    from repro.experiments.serving_comparison import (
        format_serving_comparison, run_serving_comparison)
    return format_serving_comparison(run_serving_comparison())


def _fleet() -> str:
    from repro.experiments.cluster_comparison import (
        format_cluster_comparison, run_cluster_comparison)
    return format_cluster_comparison(run_cluster_comparison())


def _prefetch_main(argv: list[str]) -> int:
    """``python -m repro prefetch``: the policy x design x mode study."""
    from repro.experiments.prefetch_comparison import (
        MODES, format_prefetch_comparison, run_prefetch_comparison,
        scalars_json)
    from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

    parser = argparse.ArgumentParser(
        prog="python -m repro prefetch",
        description="Compare vmem prefetch/eviction policies across "
                    "all six designs in training, pipeline, serving, "
                    "and cluster modes.")
    parser.add_argument(
        "--policies", default=",".join(PREFETCH_POLICY_ORDER),
        help="comma-separated policies (default: all five)")
    parser.add_argument(
        "--modes", default=",".join(MODES),
        help="comma-separated modes (default: all four)")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke run: training mode only, on AlexNet")
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default: 1)")
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table); json emits the study's "
             "key scalars, sorted and byte-deterministic")
    parser.add_argument(
        "-o", "--output", default=None,
        help="write output to this file instead of stdout")
    from repro.telemetry.session import (TelemetrySession,
                                         add_telemetry_argument)
    add_telemetry_argument(parser)
    args = parser.parse_args(argv)

    policies = [p.strip() for p in args.policies.split(",")
                if p.strip()]
    unknown = [p for p in policies if p not in PREFETCH_POLICY_ORDER]
    if unknown:
        print(f"unknown policy(ies): {', '.join(unknown)}; known: "
              f"{', '.join(PREFETCH_POLICY_ORDER)}", file=sys.stderr)
        return 2
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    bad = [m for m in modes if m not in MODES]
    if bad:
        print(f"unknown mode(s): {', '.join(bad)}; known: "
              f"{', '.join(MODES)}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.quick:
        modes = ["training"]
        kwargs["training_network"] = "AlexNet"

    session = TelemetrySession(
        tool="prefetch", argv=argv, enabled=args.telemetry,
        output=args.output,
        config={"policies": policies, "modes": modes, **kwargs})
    with session:
        study = run_prefetch_comparison(policies=tuple(policies),
                                        modes=tuple(modes),
                                        jobs=args.jobs, **kwargs)
    text = (scalars_json(study) if args.format == "json"
            else format_prefetch_comparison(study))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _faults_main(argv: list[str]) -> int:
    """``python -m repro faults``: the fault x design x mode study."""
    from repro.experiments.faults_comparison import (
        MODES, format_fault_comparison, run_fault_comparison,
        scalars_json)
    from repro.faults.model import FAULT_MODEL_ORDER

    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Inject deterministic fault models (link flaps, "
                    "stragglers, memory-node loss) across all six "
                    "designs in training, pipeline, serving, and "
                    "cluster modes and report slowdown/availability.")
    parser.add_argument(
        "--fault-models", default=",".join(FAULT_MODEL_ORDER),
        help="comma-separated fault models (default: all six)")
    parser.add_argument(
        "--modes", default=",".join(MODES),
        help="comma-separated modes (default: all four)")
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke run: training mode only, on AlexNet")
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default: 1)")
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table); json emits the study's "
             "key scalars, sorted and byte-deterministic")
    parser.add_argument(
        "-o", "--output", default=None,
        help="write output to this file instead of stdout")
    from repro.telemetry.session import (TelemetrySession,
                                         add_telemetry_argument)
    add_telemetry_argument(parser)
    args = parser.parse_args(argv)

    models = [m.strip() for m in args.fault_models.split(",")
              if m.strip()]
    unknown = [m for m in models if m not in FAULT_MODEL_ORDER]
    if unknown:
        print(f"unknown fault model(s): {', '.join(unknown)}; known: "
              f"{', '.join(FAULT_MODEL_ORDER)}", file=sys.stderr)
        return 2
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    bad = [m for m in modes if m not in MODES]
    if bad:
        print(f"unknown mode(s): {', '.join(bad)}; known: "
              f"{', '.join(MODES)}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.quick:
        modes = ["training"]
        kwargs["training_network"] = "AlexNet"

    session = TelemetrySession(
        tool="faults", argv=argv, enabled=args.telemetry,
        output=args.output,
        config={"fault_models": models, "modes": modes, **kwargs})
    with session:
        study = run_fault_comparison(models=tuple(models),
                                     modes=tuple(modes),
                                     jobs=args.jobs, **kwargs)
    text = (scalars_json(study) if args.format == "json"
            else format_fault_comparison(study))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


EXPERIMENTS: dict[str, tuple[str, Callable[[], str]]] = {
    "fig2": ("Figure 2: device generations vs PCIe overhead", _fig2),
    "fig9": ("Figure 9: ring collective latency", _fig9),
    "fig10": ("Figure 10: LOCAL vs BW_AWARE allocation", _fig10),
    "fig11": ("Figure 11: latency breakdown", _fig11),
    "fig12": ("Figure 12: CPU memory bandwidth usage", _fig12),
    "fig13": ("Figure 13: design-point performance", _fig13),
    "fig14": ("Figure 14: batch-size sensitivity", _fig14),
    "tab4": ("Table IV: memory-node power", _tab4),
    "scalability": ("Section V-D: device-count scaling", _scalability),
    "sensitivity": ("Section V-B: sensitivity studies", _sensitivity),
    "ablations": ("Design-choice ablations", _ablations),
    "productivity": ("Section V-E: user productivity", _productivity),
    "scaleout": ("Section VI: scale-out plane", _scaleout),
    "pipeline": ("Pipeline parallelism: schedules x designs on "
                 "transformers", _pipeline),
    "serving": ("Inference serving: six designs under rising load "
                "until SLO collapse", _serving),
    "fleet": ("Cluster fleet: scheduling policies x designs over a "
              "shared memory pool", _fleet),
}


def _trace_main(argv: list[str]) -> int:
    """``python -m repro trace``: export one iteration's Chrome trace."""
    from repro.cluster.policies import POLICY_NAMES
    from repro.core.design_points import DESIGN_ORDER, design_point
    from repro.core.simulator import iteration_timeline
    from repro.core.trace import engine_utilization, to_chrome_trace
    from repro.dnn.registry import WORKLOAD_NAMES
    from repro.naming import resolve_design, resolve_network
    from repro.training.parallel import ParallelStrategy

    strategies = {"data": ParallelStrategy.DATA,
                  "model": ParallelStrategy.MODEL,
                  "pipeline": ParallelStrategy.PIPELINE}
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Write the Chrome/Perfetto trace JSON of one "
                    "simulated training iteration, or (--cluster) of "
                    "one cluster run's per-job lifecycle.")
    parser.add_argument("design",
                        help=f"one of {', '.join(DESIGN_ORDER)} "
                             f"(aliases accepted, e.g. mc-hbm)")
    parser.add_argument("network", nargs="?", default=None,
                        help=f"one of {', '.join(WORKLOAD_NAMES)} "
                             f"(not used with --cluster)")
    parser.add_argument("--batch", type=int, default=512,
                        help="global batch size (default: 512)")
    parser.add_argument("--strategy", choices=sorted(strategies),
                        default="data",
                        help="parallelization strategy (default: data)")
    parser.add_argument("--pipeline-schedule", default="1f1b",
                        help="microbatch schedule for --strategy "
                             "pipeline: gpipe, 1f1b, zb-h1, "
                             "interleaved, zb-auto; aliases accepted "
                             "(default: 1f1b)")
    parser.add_argument("--microbatches", type=int, default=None,
                        help="microbatches per pipeline iteration "
                             "(default: the design point's)")
    parser.add_argument("--cluster", action="store_true",
                        help="trace a cluster run instead: one row "
                             "per job with queued/running/preempted "
                             "lifecycle slices")
    parser.add_argument("--policy", default="fifo",
                        choices=POLICY_NAMES,
                        help="cluster scheduling policy "
                             "(default: fifo)")
    parser.add_argument("--cluster-jobs", type=int, default=24,
                        help="jobs in the cluster stream "
                             "(default: 24)")
    parser.add_argument("--job-mix", default="balanced",
                        help="cluster job mix (default: balanced)")
    parser.add_argument("--seed", type=int, default=0,
                        help="cluster job-stream seed (default: 0)")
    parser.add_argument("--preempt-after", type=float, default=None,
                        help="cluster preemption patience in seconds "
                             "(default: off)")
    parser.add_argument("--telemetry", action="store_true",
                        help="merge host wall-clock spans (plan/emit/"
                             "schedule/price) into the trace as a "
                             "second process row")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: derived from the "
                             "design/network/strategy)")
    args = parser.parse_args(argv)

    from repro.naming import resolve_schedule

    try:
        design = resolve_design(args.design)
        network = (resolve_network(args.network)
                   if args.network is not None else None)
        schedule = resolve_schedule(args.pipeline_schedule)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    config = design_point(design)
    replacements = {}
    if schedule != config.pipeline_schedule:
        replacements["pipeline_schedule"] = schedule
    if args.microbatches is not None:
        replacements["pipeline_microbatches"] = args.microbatches
    if replacements:
        import dataclasses
        config = dataclasses.replace(config, **replacements)

    if args.cluster:
        from repro.cluster.jobs import generate_jobs
        from repro.cluster.simulator import ClusterSimulator
        from repro.core.trace import cluster_chrome_trace
        jobs = generate_jobs(args.job_mix, args.cluster_jobs,
                             seed=args.seed,
                             node_width=config.n_devices)
        sim = ClusterSimulator(config, policy=args.policy,
                               preempt_after=args.preempt_after)
        ledger, makespan = sim.run(jobs)
        text = cluster_chrome_trace(ledger.events)
        path = args.output
        if path is None:
            slug = "".join(c if c.isalnum() else "-" for c in
                           f"{design}-cluster-{args.policy}")
            path = f"{slug.lower()}.trace.json"
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {path}: {len(jobs)} jobs, "
              f"{len(ledger.events)} lifecycle events, "
              f"makespan {makespan:.1f} s, "
              f"{ledger.preemptions} preemptions")
        return 0

    if network is None:
        print("network is required unless --cluster is given",
              file=sys.stderr)
        return 2

    strategy = strategies[args.strategy]
    host_spans = None
    if args.telemetry:
        # Record the simulator's own phase spans over the very run
        # whose timeline is exported below.
        from repro import telemetry
        telemetry.enable(fresh=True)
        try:
            timeline = iteration_timeline(config, network, args.batch,
                                          strategy)
            recorder = telemetry.span_recorder()
            host_spans = list(recorder.spans) if recorder else []
        finally:
            telemetry.disable()
    else:
        timeline = iteration_timeline(config, network, args.batch,
                                      strategy)
    text = to_chrome_trace(
        timeline, include_bubbles=strategy is ParallelStrategy.PIPELINE,
        host_spans=host_spans)

    path = args.output
    if path is None:
        slug = "".join(c if c.isalnum() else "-" for c in
                       f"{design}-{network}-{args.strategy}")
        path = f"{slug.lower()}.trace.json"
    with open(path, "w") as handle:
        handle.write(text)

    util = engine_utilization(timeline)
    summary = " ".join(f"{k}={v:.2f}" for k, v in util.items())
    print(f"wrote {path}: {len(timeline.scheduled)} ops, "
          f"makespan {timeline.makespan * 1e3:.3f} ms, "
          f"utilization {summary}")
    if len(timeline.channels) > 1:
        per_channel = engine_utilization(timeline, per_channel=True)
        busy = " ".join(f"{k}={v:.2f}"
                        for k, v in per_channel.items() if v > 0)
        print(f"per-channel utilization: {busy}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help", "list"):
        print("usage: python -m repro <experiment|all>")
        print("       python -m repro campaign [options]")
        print("       python -m repro serve [options]")
        print("       python -m repro cluster [options]")
        print("       python -m repro prefetch [options]")
        print("       python -m repro faults [options]")
        print("       python -m repro claims [options]")
        print("       python -m repro bench [--quick] [--update]")
        print("       python -m repro trace <design> <network> [options]")
        print("experiments:")
        for key, (title, _) in EXPERIMENTS.items():
            print(f"  {key:<12} {title}")
        print("  campaign     arbitrary sweeps over the design space "
              "(--help for options)")
        print("  serve        one serving simulation: latency "
              "percentiles, goodput, SLO (--help for options)")
        print("  cluster      one multi-job cluster simulation: JCT, "
              "queueing, pool utilization (--help for options)")
        print("  prefetch     prefetch policies x designs x modes: "
              "stall, waste, evictions (--help for options)")
        print("  faults       fault models x designs x modes: "
              "slowdown, availability, recovery (--help for options)")
        print("  claims       the shipped paper-claims suite: "
              "PASS/FAIL verdict table (--help for options)")
        print("  bench        time the simulator, diff against the "
              "committed BENCH_*.json baselines (--help for options)")
        print("  trace        Chrome/Perfetto trace of one iteration "
              "(--help for options)")
        return 0

    if args[0] == "campaign":
        from repro.campaign.cli import main as campaign_main
        return campaign_main(args[1:])

    if args[0] == "serve":
        from repro.serving.cli import main as serve_main
        return serve_main(args[1:])

    if args[0] == "cluster":
        from repro.cluster.cli import main as cluster_main
        return cluster_main(args[1:])

    if args[0] == "prefetch":
        return _prefetch_main(args[1:])

    if args[0] == "faults":
        return _faults_main(args[1:])

    if args[0] == "claims":
        from repro.scenarios.cli import main as claims_main
        return claims_main(args[1:])

    if args[0] == "bench":
        from repro.bench import main as bench_main
        return bench_main(args[1:])

    if args[0] == "trace":
        return _trace_main(args[1:])

    targets = list(EXPERIMENTS) if args[0] == "all" else args
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for target in targets:
        title, runner = EXPERIMENTS[target]
        print(f"\n### {title}\n")
        print(runner())
    return 0


if __name__ == "__main__":
    sys.exit(main())
