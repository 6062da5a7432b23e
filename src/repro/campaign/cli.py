"""``python -m repro campaign``: run user-defined simulator sweeps.

Any slice of the design space — not just the paper's 6x8x2 grid — can
be swept from the command line, fanned across worker processes, and
memoized in the shared disk cache::

    python -m repro campaign --jobs 8
    python -m repro campaign --designs "DC-DLA,MC-DLA(B)" \\
        --networks VGG-E --batches 256,512 --format csv
    python -m repro campaign --no-cache --format json -o grid.json

Every cell is declared as a :class:`~repro.scenarios.dsl.Scenario`
named by its row label and run through
:func:`repro.scenarios.runner.run_scenarios`, so a campaign cell keys
the same cache entry as an identical claims or study cell.  Progress
and the cache-hit summary go to stderr; results go to stdout (or
``--output``) as a table, JSON, or CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from operator import attrgetter

from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.runner import CampaignReport, CellOutcome
from repro.cluster.jobs import DEFAULT_JOBS
from repro.core.design_points import DESIGN_ORDER
from repro.dnn.registry import (BENCHMARK_NAMES, TRANSFORMER_NAMES,
                                WORKLOAD_NAMES)
from repro.faults.model import FAULT_MODEL_ORDER
from repro.naming import resolve_fault_model
from repro.scenarios.dsl import (DesignSpec, FleetSpec, Scenario,
                                 TrafficSpec, WorkloadSpec)
from repro.scenarios.lowering import lower_scenario
from repro.scenarios.runner import run_scenarios
from repro.telemetry.session import (TelemetrySession,
                                     add_telemetry_argument, eta_seconds)
from repro.vmem.prefetch import PREFETCH_POLICY_ORDER

#: Every output column, in order, as (column, payload, field): the
#: column reads ``field`` of ``payload``, a dotted attribute path from
#: the cell's outcome (empty: the outcome itself), and is None when
#: the payload is (a cell without that mode's stats).  A None
#: ``field`` embeds the payload's ``to_dict()``; those five columns
#: are JSON-only.  Fault columns sit between the prefetch block and
#: "cached" so the first fifteen CSV fields stay stable for
#: downstream `cut`s.
_COLUMNS = (
    ("design", "point", "name"),
    ("network", "result", "network"),
    ("batch", "result", "batch"),
    ("strategy", "result.strategy", "value"),
    ("n_devices", "result", "n_devices"),
    ("iteration_time", "result", "iteration_time"),
    ("throughput", "result", "throughput"),
    ("compute", "result.breakdown", "compute"),
    ("sync", "result.breakdown", "sync"),
    ("vmem", "result.breakdown", "vmem"),
    ("offload_bytes_per_device", "result", "offload_bytes_per_device"),
    ("sync_bytes", "result", "sync_bytes"),
    ("host_traffic_bytes_per_device", "result",
     "host_traffic_bytes_per_device"),
    ("fits_in_device_memory", "result", "fits_in_device_memory"),
    ("bubble_fraction", "result.pipeline", "bubble_fraction"),
    ("pipeline", "result.pipeline", None),
    ("mode", "result.mode", "value"),
    ("latency_p50", "result.serving", "latency_p50"),
    ("latency_p95", "result.serving", "latency_p95"),
    ("latency_p99", "result.serving", "latency_p99"),
    ("goodput", "result.serving", "goodput"),
    ("slo_attainment", "result.serving", "slo_attainment"),
    ("serving", "result.serving", None),
    ("jct_p50", "result.cluster", "jct_p50"),
    ("jct_p95", "result.cluster", "jct_p95"),
    ("queue_delay_mean", "result.cluster", "queue_delay_mean"),
    ("pool_utilization", "result.cluster", "pool_utilization"),
    ("preemptions", "result.cluster", "preemptions"),
    ("cluster", "result.cluster", None),
    ("prefetch_policy", "result.prefetch", "policy"),
    ("stall_seconds", "result.prefetch", "stall_seconds"),
    ("prefetch_hit_rate", "result.prefetch", "hit_rate"),
    ("wasted_prefetch_bytes", "result.prefetch", "wasted_bytes"),
    ("prefetch_evictions", "result.prefetch", "evictions"),
    ("prefetch", "result.prefetch", None),
    ("fault_model", "result.faults", "model"),
    ("fault_events", "result.faults", "injected_events"),
    ("fault_retries", "result.faults", "retries"),
    ("shed_requests", "result.faults", "shed_requests"),
    ("timed_out_requests", "result.faults", "timed_out_requests"),
    ("recovery_bytes", "result.faults", "recovery_bytes"),
    ("availability", "result.faults", "availability"),
    ("faults", "result.faults", None),
    ("cached", "", "cached"),
)

_CSV_FIELDS = tuple(column for column, _, field in _COLUMNS
                    if field is not None)


def _split(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _required(raw: str, flag: str) -> list[str]:
    """``flag``'s comma-separated values, of which an axis that is on
    needs at least one: an empty list would drop its cells silently."""
    values = _split(raw)
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _parse_policy(raw: str) -> tuple[int, float]:
    """Parse a ``MAXxWAITms`` batch policy, e.g. ``8x2`` or ``16x0.5``."""
    try:
        max_batch, wait_ms = raw.lower().split("x", 1)
        return int(max_batch), float(wait_ms)
    except ValueError:
        raise ValueError(
            f"bad batch policy {raw!r}; expected MAXxWAITms, "
            f"e.g. 8x2") from None


def _scenarios(args: argparse.Namespace) -> list[Scenario]:
    """Every cell the flags ask for, as a Scenario named by its row label.

    Row order: fault model outermost, then training, pipeline, serving
    and cluster cells, each with the design innermost.  The specs
    resolve every name through :mod:`repro.naming` and check every
    value, so bad input raises here, before any cell runs.
    """
    systems = [DesignSpec(name) for name in _split(args.designs)]
    networks = _split(args.networks)
    batches = [int(b) for b in _split(args.batches)]
    strategies = _split(args.strategies)
    # (label suffix, Scenario fields) per cell, design left open.
    cells: list[tuple[str, dict]] = []
    flat = [WorkloadSpec(network, batch, strategy)
            for strategy in strategies if strategy != "pipeline"
            for network in networks for batch in batches]
    policies = _split(args.prefetch_policies)
    if policies:
        cells += [(f"|{policy}",
                   {"workload": workload, "prefetch_policy": policy})
                  for policy in policies for workload in flat]
    else:
        cells += [("", {"workload": workload}) for workload in flat]
    if "pipeline" in strategies:
        piped = [WorkloadSpec(network, batch, "pipeline",
                              microbatches=args.microbatches,
                              schedule=schedule)
                 for schedule in _split(args.pipeline_schedules)
                 for network in networks for batch in batches]
        cells += [(f"|{workload.schedule}", {"workload": workload})
                  for workload in piped]
    if args.arrival_rates.strip():
        rates = _required(args.arrival_rates, "--arrival-rates")
        slos = _required(args.slo_ms, "--slo-ms")
        served = [WorkloadSpec(network) for network in networks]
        batch_policies = [_parse_policy(p) for p in
                          _required(args.batch_policies, "--batch-policies")]
        if args.batcher == "continuous":
            flat_nets = [w.network for w in served
                         if w.network not in TRANSFORMER_NAMES]
            if flat_nets:
                raise ValueError(
                    f"continuous batching needs transformer workloads "
                    f"(decode phase); not: {', '.join(flat_nets)}")
            # Iteration-level batching admits at step boundaries;
            # there is no fill deadline, so wait variants collapse.
            batch_policies = [(max_batch, 0.0)
                              for max_batch, _ in batch_policies]
        traffic = [TrafficSpec(arrival=args.arrival, rate=float(rate),
                               n_requests=args.requests, seed=args.seed,
                               slo_ms=float(slo), max_batch=max_batch,
                               max_wait_ms=wait_ms, batcher=args.batcher)
                   for max_batch, wait_ms in batch_policies
                   for slo in slos
                   for rate in rates]
        cells += [(f"|{t.arrival}@{t.rate:g}rps|slo{t.slo_ms:g}ms"
                   f"|b{t.max_batch}w{t.max_wait_ms:g}ms",
                   {"workload": workload, "traffic": t})
                  for t in traffic for workload in served]
    if args.policies.strip():
        from repro.cluster.jobs import JOB_MIX_NAMES
        from repro.cluster.jobs import POLICY_NAMES
        from repro.units import GB
        sched = _required(args.policies, "--policies")
        bad_policies = [p for p in sched if p not in POLICY_NAMES]
        if bad_policies:
            raise ValueError(f"unknown policy(ies): "
                             f"{', '.join(bad_policies)}; known: "
                             f"{', '.join(POLICY_NAMES)}")
        mixes = _required(args.job_mixes, "--job-mixes")
        bad_mixes = [m for m in mixes if m not in JOB_MIX_NAMES]
        if bad_mixes:
            raise ValueError(f"unknown job mix(es): "
                             f"{', '.join(bad_mixes)}; known: "
                             f"{', '.join(JOB_MIX_NAMES)}")
        oversubs = _required(args.pool_oversub, "--pool-oversub")
        pool = int(args.pool_gb * GB) if args.pool_gb is not None \
            else None
        fleets = [FleetSpec(policy=policy, job_mix=mix,
                            n_jobs=args.cluster_jobs, seed=args.seed,
                            pool_capacity=pool,
                            oversubscription=float(oversub))
                  for oversub in oversubs
                  for mix in mixes for policy in sched]
        cells += [(f"|{f.policy}|{f.job_mix}|os{f.oversubscription:g}",
                   {"fleet": f}) for f in fleets]
    scenarios = [Scenario(name=system.design + suffix, system=system,
                          **fields)
                 for suffix, fields in cells for system in systems]
    models = [resolve_fault_model(m) for m in _split(args.fault_models)]
    if models:
        scenarios = [dataclasses.replace(scenario, fault_model=model,
                                         name=f"{scenario.name}|{model}")
                     for model in models for scenario in scenarios]
    # Aliases and repeated values can declare one cell twice.
    return list(dict.fromkeys(scenarios))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Sweep simulator cells across designs, workloads, "
                    "batch sizes, and parallelization strategies.")
    parser.add_argument(
        "--designs", default=",".join(DESIGN_ORDER),
        help="comma-separated design points (default: all six)")
    parser.add_argument(
        "--networks", default=",".join(BENCHMARK_NAMES),
        help="comma-separated workloads (default: the paper's eight; "
             "transformer extensions: "
             + ", ".join(n for n in WORKLOAD_NAMES
                         if n not in BENCHMARK_NAMES) + ")")
    parser.add_argument(
        "--batches", default="512",
        help="comma-separated batch sizes (default: 512)")
    parser.add_argument(
        "--strategies", default="data,model",
        help="comma-separated strategies: data, model, pipeline "
             "(default: data,model)")
    parser.add_argument(
        "--pipeline-schedules", default="1f1b",
        help="comma-separated microbatch schedules for pipeline cells: "
             "1f1b, gpipe, zb-h1, interleaved, zb-auto "
             "(default: 1f1b)")
    parser.add_argument(
        "--microbatches", type=int, default=8,
        help="microbatches per pipeline iteration (default: 8)")
    parser.add_argument(
        "--prefetch-policies", default="",
        help="comma-separated vmem prefetch policies ("
             + ", ".join(PREFETCH_POLICY_ORDER) + "); non-empty "
             "replicates every data/model training cell per policy")
    parser.add_argument(
        "--fault-models", default="",
        help="comma-separated fault models ("
             + ", ".join(FAULT_MODEL_ORDER) + "); non-empty "
             "replicates every cell per model (include none for the "
             "healthy baseline)")
    parser.add_argument(
        "--arrival-rates", default="",
        help="comma-separated request rates (req/s); non-empty adds "
             "serving cells to the grid")
    parser.add_argument(
        "--slo-ms", default="50",
        help="comma-separated latency SLOs for serving cells, in ms "
             "(default: 50)")
    parser.add_argument(
        "--batch-policies", default="8x2",
        help="comma-separated dynamic-batching policies for serving "
             "cells, as MAXxWAITms (default: 8x2 = batch 8, 2 ms)")
    parser.add_argument(
        "--batcher", choices=("dynamic", "continuous"),
        default="dynamic",
        help="serving batcher (default: dynamic)")
    parser.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson",
        help="serving arrival process (default: poisson)")
    parser.add_argument(
        "--requests", type=int, default=512,
        help="requests per serving cell (default: 512)")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="arrival-trace seed for serving and cluster cells "
             "(default: 0)")
    parser.add_argument(
        "--policies", default="",
        help="comma-separated cluster scheduling policies (fifo, sjf, "
             "pool-fit, gang); non-empty adds cluster cells")
    parser.add_argument(
        "--job-mixes", default="balanced",
        help="comma-separated cluster job mixes (default: balanced)")
    parser.add_argument(
        "--pool-oversub", default="1",
        help="comma-separated pool oversubscription factors for "
             "cluster cells (default: 1)")
    parser.add_argument(
        "--cluster-jobs", type=int, default=DEFAULT_JOBS,
        help=f"jobs per cluster cell (default: {DEFAULT_JOBS})")
    parser.add_argument(
        "--pool-gb", type=float, default=None,
        help="shared pool capacity per cluster cell, in GiB "
             "(default: 128 GiB per fleet device)")
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes; 1 runs serially, 0 uses every core")
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"result cache directory (default: $REPRO_CACHE_DIR or "
             f"{default_cache_dir()})")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="simulate every cell afresh and persist nothing")
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)")
    parser.add_argument(
        "-o", "--output", default=None,
        help="write results to this file instead of stdout")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-cell progress lines")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink the grid to a 2x2 data-parallel smoke sweep "
             "(2 designs, 2 networks, batch 256); other axis flags "
             "are ignored")
    add_telemetry_argument(parser)
    return parser


def _cell(outcome: CellOutcome, payload: str, field: str | None):
    """One column of a cell's row (see :data:`_COLUMNS`)."""
    source = attrgetter(payload)(outcome) if payload else outcome
    if source is None:
        return None
    return source.to_dict() if field is None else getattr(source, field)


def _rows(report: CampaignReport) -> list[dict]:
    return [{column: _cell(outcome, payload, field)
             for column, payload, field in _COLUMNS}
            for outcome in report.outcomes if outcome.ok]


def _render(report: CampaignReport, fmt: str) -> str:
    rows = _rows(report)
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        # The embedded payload dicts are JSON-only.
        writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS,
                                lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    from repro.experiments.report import format_table, percent
    table_rows = []
    has_serving = any(r["mode"] == "serving" for r in rows)
    has_cluster = any(r["mode"] == "cluster" for r in rows)
    for r in rows:
        row = [r["design"], r["network"], r["batch"], r["strategy"]]
        if r["mode"] == "serving":
            # iteration_time holds the whole trace span and
            # `throughput` the per-batch ratio -- neither means
            # anything request-level; show the serving metrics.
            serving = r["serving"]
            row += ["--", f"{serving['throughput']:.1f} req/s"]
            if has_serving:
                row += [r["latency_p99"] * 1e3,
                        f"{r['goodput']:.1f}",
                        percent(r["slo_attainment"])]
            if has_cluster:
                row += ["--", "--", "--"]
        elif r["mode"] == "cluster":
            # iteration_time holds the makespan; the fleet-level
            # metrics live in the cluster object.
            cluster = r["cluster"]
            row += ["--", f"{cluster['throughput'] * 3600:.1f} jobs/h"]
            if has_serving:
                row += ["--", "--", "--"]
            if has_cluster:
                row += [f"{r['jct_p95']:.1f}s",
                        f"{r['queue_delay_mean']:.1f}s",
                        percent(r["pool_utilization"])]
        else:
            row += [r["iteration_time"] * 1e3, r["throughput"]]
            if has_serving:
                row += ["--", "--", "--"]
            if has_cluster:
                row += ["--", "--", "--"]
        row.append("hit" if r["cached"] else "miss")
        table_rows.append(row)
    headers = ["design", "network", "batch", "strategy", "iter (ms)",
               "samples/s"]
    if has_serving:
        headers += ["p99 (ms)", "goodput", "SLO att."]
    if has_cluster:
        headers += ["JCT p95", "wait", "pool util"]
    headers.append("cache")
    return format_table(headers, table_rows,
                        title=f"campaign: {len(rows)} cells")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.quick:
        # A 4-cell smoke grid: CI runs it with --telemetry to check
        # the artifact pipeline without paying for a full sweep.
        args.designs = ",".join(DESIGN_ORDER[:2])
        args.networks = ",".join(BENCHMARK_NAMES[:2])
        args.batches = "256"
        args.strategies = "data"
        args.prefetch_policies = ""
        args.fault_models = ""
        args.arrival_rates = ""
        args.policies = ""

    if args.jobs < 0:
        print(f"--jobs must be >= 0 (0 uses every core), got "
              f"{args.jobs}", file=sys.stderr)
        return 2
    try:
        scenarios = _scenarios(args)
    except (ValueError, KeyError) as exc:
        print(f"bad axis value: {exc.args[0]}", file=sys.stderr)
        return 2
    if not scenarios:
        print("empty campaign grid", file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir if args.cache_dir
                            else default_cache_dir())

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)

    sim_times: list[float] = []

    def report_progress(outcome: CellOutcome, done: int,
                        total: int) -> None:
        if outcome.ok and not outcome.cached:
            sim_times.append(outcome.elapsed)
        if args.quiet:
            return
        status = ("cached" if outcome.cached
                  else "failed" if not outcome.ok
                  else f"{outcome.elapsed * 1e3:.0f}ms")
        point = outcome.point
        line = (f"[{done}/{total}] {point.name} {point.network} "
                f"b{point.batch} {point.strategy.value}: {status}")
        if args.telemetry:
            # Live cache tally + ETA from the mean simulated-cell
            # time.  Cache hits replay before any miss simulates, so
            # the cells still outstanding are all misses.
            hits = cache.hits if cache is not None else 0
            line += f" | cache {hits} hit" + ("" if hits == 1 else "s")
            eta = eta_seconds(sum(sim_times), len(sim_times),
                              total - done)
            if eta is not None:
                line += f", ETA {eta:.1f}s"
        print(line, file=sys.stderr)

    session = TelemetrySession(
        tool="campaign",
        argv=list(argv) if argv is not None else sys.argv[1:],
        enabled=args.telemetry, output=args.output,
        config={"points": [lower_scenario(scenario).describe()
                           for scenario in scenarios]},
        seed=args.seed)
    with session:
        start = time.perf_counter()
        outcomes = run_scenarios(dict(enumerate(scenarios)), jobs=jobs,
                                 cache=cache, progress=report_progress)
        report = CampaignReport(tuple(outcomes.values()))
        elapsed = time.perf_counter() - start

        # One JSONL event per cell, in input order (no wall-clock:
        # the stream must be identical run to run).
        for outcome in report.outcomes:
            session.emit({
                "event": "cell",
                "design": outcome.point.name,
                "network": outcome.point.network,
                "batch": outcome.point.batch,
                "strategy": outcome.point.strategy.value,
                "ok": outcome.ok,
                "cached": outcome.cached,
            })

        simulated = (len(scenarios) - report.cached_count
                     - len(report.failures))
        session.cells = {"total": len(scenarios),
                         "cached": report.cached_count,
                         "simulated": simulated,
                         "failed": len(report.failures)}
        print(f"campaign: {len(scenarios)} cells: {report.cached_count} "
              f"from cache, {simulated} simulated, "
              f"{len(report.failures)} failed "
              f"({elapsed:.2f}s, jobs={jobs})", file=sys.stderr)
        if cache is not None:
            lookups = cache.hits + cache.misses
            rate = 100.0 * cache.hits / lookups if lookups else 0.0
            print(f"cache: {cache.hits} hits, {cache.misses} misses "
                  f"({rate:.0f}% hit rate), {cache.bytes_read} B "
                  f"read, {cache.bytes_written} B written",
                  file=sys.stderr)

    text = _render(report, args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)

    for outcome in report.failures:
        print(f"FAILED {outcome.point.name}/{outcome.point.network}: "
              f"{outcome.error}", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
