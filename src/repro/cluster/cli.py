"""``python -m repro cluster``: one cluster simulation, interactively.

Examples::

    python -m repro cluster --design mc-hbm --policy sjf \\
        --job-mix balanced --jobs 24
    python -m repro cluster --design dc --policy pool-fit \\
        --pool-gb 1024 --pool-oversub 1.5 --format json
    python -m repro cluster --quick

Design points accept the same friendly aliases as ``serve`` (``dc``,
``mc-hbm``, ``oracle``); ``--quick`` runs a small smoke-sized fleet
for CI.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster.jobs import (DEFAULT_ARRIVAL_RATE,
                                DEFAULT_FLEET_DEVICES, DEFAULT_JOBS,
                                JOB_MIX_NAMES, POLICY_NAMES)
from repro.cluster.simulator import simulate_cluster
from repro.core.design_points import design_point
from repro.naming import resolve_design
from repro.telemetry.session import TelemetrySession, add_telemetry_argument
from repro.units import GB, fmt_bytes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Schedule a seeded stream of heterogeneous jobs "
                    "(training, pipeline gangs, serving tenants) on a "
                    "device fleet sharing one disaggregated memory "
                    "pool; report JCT percentiles, queueing delay, "
                    "and pool utilization.")
    parser.add_argument("--design", default="MC-DLA(B)",
                        help="design point or alias (default: "
                             "MC-DLA(B); try mc-hbm, dc, oracle)")
    parser.add_argument("--policy", default="fifo",
                        choices=POLICY_NAMES,
                        help="scheduling policy (default: fifo)")
    parser.add_argument("--job-mix", default="balanced",
                        choices=JOB_MIX_NAMES,
                        help="job mix (default: balanced)")
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help=f"jobs in the stream (default: "
                             f"{DEFAULT_JOBS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="job-stream seed (default: 0)")
    parser.add_argument("--arrival-rate", type=float,
                        default=DEFAULT_ARRIVAL_RATE,
                        help="job submissions per second (default: "
                             f"{DEFAULT_ARRIVAL_RATE:g})")
    parser.add_argument("--fleet-devices", type=int,
                        default=DEFAULT_FLEET_DEVICES,
                        help=f"devices in the fleet (default: "
                             f"{DEFAULT_FLEET_DEVICES})")
    parser.add_argument("--pool-gb", type=float, default=None,
                        help="shared pool capacity in GiB (default: "
                             "128 GiB per device)")
    parser.add_argument("--pool-oversub", type=float, default=1.0,
                        help="pool oversubscription factor >= 1 "
                             "(default: 1.0; overflow spills to the "
                             "slow tier)")
    parser.add_argument("--preempt-after", type=float, default=None,
                        help="preempt to unblock jobs queued longer "
                             "than this many seconds (default: off)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (8 jobs, 1 node) for CI")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: table)")
    add_telemetry_argument(parser)
    return parser


def format_stats(design: str, result) -> str:
    """Human-readable report of one cluster run."""
    c = result.cluster
    lines = [
        f"cluster on {design}: {c.policy} over {c.n_devices} devices, "
        f"{c.job_mix} mix, pool {fmt_bytes(c.pool_capacity)} "
        f"x{c.oversubscription:g}",
        f"  jobs             {c.n_jobs} over {c.makespan:.1f}s "
        f"makespan ({c.throughput * 3600:.1f} jobs/hour)",
        f"  JCT              mean {c.jct_mean:.1f}s | "
        f"p50 {c.jct_p50:.1f}s | p95 {c.jct_p95:.1f}s",
        f"  queueing         mean wait {c.queue_delay_mean:.1f}s "
        f"({c.queueing_share * 100:.1f}% of mean JCT)",
        f"  utilization      devices {c.device_utilization * 100:.1f}% "
        f"| pool {c.pool_utilization * 100:.1f}% "
        f"(pressure {c.pool_pressure:.2f}x)",
        f"  fragmentation    {c.fragmentation * 100:.1f}% of "
        f"device-time idle while jobs waited",
        f"  preemption       {c.preemptions} evictions, "
        f"{fmt_bytes(c.checkpoint_bytes)} checkpoint traffic",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        design = resolve_design(args.design)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    n_jobs = args.jobs
    fleet = args.fleet_devices
    if args.quick:
        n_jobs, fleet = 8, 8

    config = design_point(design)
    pool_capacity = (int(args.pool_gb * GB)
                     if args.pool_gb is not None else None)
    session = TelemetrySession(
        tool="cluster",
        argv=list(argv) if argv is not None else sys.argv[1:],
        enabled=args.telemetry, seed=args.seed,
        config={"design": design, "policy": args.policy,
                "job_mix": args.job_mix, "n_jobs": n_jobs,
                "arrival_rate": args.arrival_rate,
                "fleet_devices": fleet,
                "pool_capacity": pool_capacity,
                "oversubscription": args.pool_oversub,
                "preempt_after": args.preempt_after})
    try:
        with session:
            result = simulate_cluster(
                config, policy=args.policy, job_mix=args.job_mix,
                n_jobs=n_jobs, seed=args.seed,
                arrival_rate=args.arrival_rate, fleet_devices=fleet,
                pool_capacity=pool_capacity,
                oversubscription=args.pool_oversub,
                preempt_after=args.preempt_after)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_stats(design, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
