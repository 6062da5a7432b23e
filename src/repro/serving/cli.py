"""``python -m repro serve``: one serving simulation, interactively.

Examples::

    python -m repro serve --design mc-hbm --network gpt2 \\
        --arrival-rate 200 --slo-ms 50
    python -m repro serve --design DC-DLA --network GPT2 \\
        --arrival bursty --arrival-rate 800 --batcher continuous
    python -m repro serve --design mc-hbm --network VGG-E \\
        --max-batch 16 --max-wait-ms 5 --format json

Design points and networks accept friendly aliases (``mc-hbm`` for the
BW_AWARE memory-centric ring backed by the HBM-class pool, ``dc`` for
the device-centric baseline, ``gpt2``/``bert`` for the transformer
workloads) on top of the exact Figure 11/13 names.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.design_points import design_point
from repro.dnn.registry import TRANSFORMER_NAMES
from repro.naming import resolve_design, resolve_network
from repro.serving.server import (DEFAULT_DECODE_STEPS, DEFAULT_REQUESTS,
                                  DEFAULT_SLO, simulate_serving)
from repro.telemetry.session import TelemetrySession, add_telemetry_argument


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve an open-loop request trace on a design "
                    "point and report the latency distribution, "
                    "goodput, and SLO attainment.")
    parser.add_argument("--design", default="MC-DLA(B)",
                        help="design point or alias (default: "
                             "MC-DLA(B); try mc-hbm, dc, oracle)")
    parser.add_argument("--network", default="GPT2",
                        help="workload or alias (default: GPT2)")
    parser.add_argument("--arrival-rate", type=float, default=100.0,
                        help="offered load in requests/sec "
                             "(default: 100)")
    parser.add_argument("--arrival", default="poisson",
                        choices=("poisson", "bursty"),
                        help="arrival process (default: poisson)")
    parser.add_argument("--slo-ms", type=float,
                        default=DEFAULT_SLO * 1e3,
                        help="latency SLO in milliseconds "
                             f"(default: {DEFAULT_SLO * 1e3:g})")
    parser.add_argument("--requests", type=int,
                        default=DEFAULT_REQUESTS,
                        help="trace length in requests "
                             f"(default: {DEFAULT_REQUESTS})")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival-trace seed (default: 0)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="dynamic batcher: max batch size "
                             "(default: 8)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="dynamic batcher: max wait deadline in "
                             "ms (default: 2)")
    parser.add_argument("--batcher", default="dynamic",
                        choices=("dynamic", "continuous"),
                        help="batching discipline; continuous = "
                             "iteration-level decode batching "
                             "(transformers only)")
    parser.add_argument("--decode-steps", type=int,
                        default=DEFAULT_DECODE_STEPS,
                        help="decode steps per request under "
                             "continuous batching (default: "
                             f"{DEFAULT_DECODE_STEPS})")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: table)")
    add_telemetry_argument(parser)
    return parser


def format_stats(design: str, network: str, result) -> str:
    """Human-readable report of one serving run."""
    s = result.serving
    ms = 1e3
    lines = [
        f"serving {network} on {design}: {s.arrival}, "
        f"{s.batcher} batching (max {s.max_batch}, "
        f"wait {s.max_wait * ms:g} ms), {s.n_servers} server(s)",
        f"  requests          {s.n_requests} over {s.duration:.3f}s "
        f"(offered {s.offered_rate:g} req/s)",
        f"  latency           p50 {s.latency_p50 * ms:.2f} ms | "
        f"p95 {s.latency_p95 * ms:.2f} ms | "
        f"p99 {s.latency_p99 * ms:.2f} ms | "
        f"max {s.latency_max * ms:.2f} ms",
        f"  mean              latency {s.latency_mean * ms:.2f} ms = "
        f"queue {s.queue_delay_mean * ms:.2f} ms + "
        f"service {s.service_mean * ms:.2f} ms",
        f"  SLO {s.slo * ms:g} ms       attainment "
        f"{s.slo_attainment * 100:.1f}% | goodput {s.goodput:.1f} "
        f"req/s of {s.throughput:.1f} req/s",
        f"  batching          mean batch {s.mean_batch_size:.2f} | "
        f"utilization {s.utilization * 100:.1f}% | "
        f"tail amplification {s.tail_amplification:.2f}x",
        f"  per-batch memory  {result.offload_bytes_per_device / 1e6:.0f}"
        f" MB weights streamed/device",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        design = resolve_design(args.design)
        network = resolve_network(args.network)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.batcher == "continuous" and network not in TRANSFORMER_NAMES:
        print(f"continuous batching needs a transformer workload "
              f"(decode phase); {network} has none. "
              f"transformers: {', '.join(TRANSFORMER_NAMES)}",
              file=sys.stderr)
        return 2

    config = design_point(design)
    session = TelemetrySession(
        tool="serve",
        argv=list(argv) if argv is not None else sys.argv[1:],
        enabled=args.telemetry, seed=args.seed,
        config={"design": design, "network": network,
                "arrival": args.arrival, "rate": args.arrival_rate,
                "n_requests": args.requests,
                "slo": args.slo_ms / 1e3,
                "max_batch": args.max_batch,
                "max_wait": args.max_wait_ms / 1e3,
                "batcher": args.batcher,
                "decode_steps": args.decode_steps})
    try:
        with session:
            result = simulate_serving(
                config, network,
                arrival=args.arrival, rate=args.arrival_rate,
                n_requests=args.requests, seed=args.seed,
                slo=args.slo_ms / 1e3, max_batch=args.max_batch,
                max_wait=args.max_wait_ms / 1e3, batcher=args.batcher,
                decode_steps=args.decode_steps)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_stats(design, network, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
