"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured on untraced
passes; ``--trace 1`` prints the per-layer metrics of a separate traced
run, writes its Chrome trace to ``perfbench/out/<workload>.trace.json``
and prints a self-time table.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import perfbench  # noqa: E402
from perfbench import timing, workloads  # noqa: E402
from perfbench.kernel import kernel_seconds  # noqa: E402
from perfbench.tracer import (ROOT_LAYER, TARGETS, LayerStats,  # noqa: E402
                              Tracer, layer_stats)

HERE = os.path.join(perfbench.ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PROBE = os.path.join(HERE, "probe.py")

#: Fresh interpreters timed for ``setup_s`` and for the ``import.*``
#: metrics; one more, untimed, first warms the bytecode and file caches.
SETUP_PROBES = 7
IMPORT_PROBES = 3
MIN_PASSES = 3
#: Traced passes written to the Chrome trace (all of them feed the
#: metrics; a warm run traces hundreds).
TRACE_FILE_PASSES = 3
IMPORT_GROUPS = ("numpy", "networkx", "repro")

#: Layers whose self time is reported as ``<layer>.self_s``: they mostly
#: orchestrate other layers, so their self time is glue.
GLUE_LAYERS = (ROOT_LAYER, "campaign.run", "scenarios.run",
               "core.simulate", "serving", "cluster")

#: The part of a training cell outside the program's own
#: plan/price/emit/schedule spans.
UNSPANNED = ("core.design_point", "dnn.build", "faults", "vmem.collect",
             "core.simulate")

_CORE_LAYERS = ("dnn.build", "core.design_point", "core.simulate",
                "core.plan", "core.price", "vmem.prefetch_plan",
                "vmem.collect", "core.emit", "core.schedule", "faults",
                "campaign.run")
_SUITE_LAYERS = ("campaign.key", "campaign.cache_get", "scenarios.lower",
                 "scenarios.fingerprint", "scenarios.evaluate",
                 "scenarios.render", "scenarios.run")
#: Layers each workload must call; zero calls fails the traced run.
REQUIRED = {
    "grid": _CORE_LAYERS,
    "claims-cold": _CORE_LAYERS + _SUITE_LAYERS + (
        "pipeline.plan", "pipeline.search", "pipeline.stats", "serving",
        "cluster", "campaign.cache_put", "core.metrics.encode"),
    "claims-warm": ("core.design_point", "campaign.run",
                    "core.metrics.decode") + _SUITE_LAYERS,
}


@dataclass
class PassRecord:
    wall: float            # raw seconds
    factor: float          # speed factor to the reference speed
    samples: list          # cell latencies at the reference speed
    check: workloads.PassCheck
    tallies: dict
    peak_rss_mb: float     # process peak so far

    @property
    def seconds(self) -> float:
        """The pass at the reference speed."""
        return self.wall * self.factor


def run_passes(workload, seconds: float,
               tracer: Tracer | None = None) -> list[PassRecord]:
    """Timed passes for ``seconds``; at least ``MIN_PASSES``, and until
    the p90 cell latency has enough samples beyond it.  Each pass is
    scaled by the calibration-kernel runs at its two ends."""
    records: list[PassRecord] = []
    kernel_s = kernel_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        workload.reset()
        stamps: list[float] = []
        outcomes: list = []

        def progress(outcome, done, total):
            stamps.append(time.perf_counter())
            outcomes.append(outcome)
            if tracer is not None:
                tracer.cell = None

        if tracer is not None:
            tracer.install(workloads.cell_name)
            tracer.begin_pass()
        start = time.perf_counter()
        try:
            output = workload.run_pass(progress)
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_pass()
                tracer.uninstall()
        kernel_after = kernel_seconds()
        factor = timing.speed_factor((kernel_s + kernel_after) / 2)
        kernel_s = kernel_after
        records.append(PassRecord(
            wall=end - start, factor=factor,
            samples=cell_latencies(stamps, factor),
            check=workload.check(outcomes, output),
            tallies=workload.cache_tallies(output),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6))
        count = sum(len(r.samples) for r in records)
        if (time.perf_counter() >= deadline and len(records) >= MIN_PASSES
                and timing.enough_samples(count, 0.9)):
            return records


def cell_latencies(stamps, factor: float) -> list[float]:
    """Gaps between consecutive progress stamps, at the reference speed.
    The stretch before the first stamp is not a cell latency: a claims
    pass computes every cell's cache key before its first cell ends."""
    return [(b - a) * factor for a, b in zip(stamps, stamps[1:])]


def probe(kind: str, seed: int, importtime: bool,
          kernel_before: float) -> tuple[dict, float]:
    """Run the set-up probe in a fresh interpreter; times come back
    scaled to the reference speed.  Set-up is file reads and module
    execution more than interpreter loops, so its speed estimate pools
    the kernel runs bracketing it in the child and in this process."""
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [PROBE, kind, str(seed)]
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_CACHE_DIR", "REPRO_SCALAR_CORE")}
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, env=env, cwd=perfbench.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    kernel_after = kernel_seconds()
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    factor = timing.speed_factor(
        (data["kernel_s"] + (kernel_before + kernel_after) / 2) / 2)
    out = {"setup_s": data["setup_s"] * factor}
    if importtime:
        out["imports"] = {group: seconds * factor for group, seconds
                          in import_self_times(proc.stderr).items()}
    return out, kernel_after


def import_self_times(text: str) -> dict[str, float]:
    """``-X importtime`` self times summed per top-level package
    (numpy, networkx, repro, everything else), in seconds.  The
    benchmark's own modules are left out."""
    totals = dict.fromkeys(IMPORT_GROUPS + ("other",), 0.0)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top == "perfbench":
            continue
        group = top if top in IMPORT_GROUPS else "other"
        totals[group] += int(fields[0]) * 1e-6
    return totals


def probes(kind: str, seed: int, count: int, importtime: bool) -> list:
    """``count`` timed probes after one untimed one."""
    _, kernel = probe(kind, seed, importtime, kernel_seconds())
    out = []
    for _ in range(count):
        result, kernel = probe(kind, seed, importtime, kernel)
        out.append(result)
    return out


def paper_gap(records) -> float | None:
    """From the first pass that produced all 16 paper-gap cells."""
    for record in records:
        try:
            return workloads.paper_gap_pct(record.check.iteration_times)
        except KeyError:
            continue
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tally(checks) -> tuple[int, int]:
    """Attempted and failed operations over ``checks``."""
    return (sum(c.attempted for c in checks), sum(c.failed for c in checks))


def end_to_end(workload, records, setups,
               checks) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and the problems that kept one out."""
    cells = len(workload.cells)
    samples = [sample for r in records for sample in r.samples]
    attempted, failed = tally(checks)
    metrics = {
        "cells_per_s": metric(
            cells / statistics.median(r.seconds for r in records), "cells/s"),
        "cell_ms_p50": metric(timing.percentile(samples, 0.5) * 1e3, "ms"),
        "cell_ms_p90": metric(timing.percentile(samples, 0.9) * 1e3, "ms"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in setups),
                          "s"),
        # After a fixed amount of work: how many passes fit in the run
        # depends on the machine's speed, and later passes only nudge
        # the peak through garbage-collection timing.
        "peak_rss_mb": metric(records[MIN_PASSES - 1].peak_rss_mb, "MB"),
        "success_rate": metric(1.0 - failed / attempted, "fraction"),
    }
    gap = paper_gap(records)
    if gap is None:
        return metrics, ["no pass produced all 16 paper-gap cells"]
    metrics["paper_gap_pct"] = metric(gap, "%")
    return metrics, []


def layer_names() -> list[str]:
    return [ROOT_LAYER] + list(dict.fromkeys(t.layer for t in TARGETS))


def time_metric(layer: str) -> str:
    return f"{layer}.self_s" if layer in GLUE_LAYERS else f"{layer}.s"


def traced_layer_stats(tracer: Tracer, traced) -> dict[str, LayerStats]:
    """Layer totals over the traced passes, each span scaled by its
    pass's speed factor."""
    weights = [traced[s.pass_index].factor for s in tracer.spans]
    return layer_stats(tracer.spans, weights, tracer.items)


def per_layer(tracer: Tracer, stats, untraced, traced, imports) -> dict:
    passes = tracer.passes

    def get(layer: str) -> LayerStats:
        return stats.get(layer, LayerStats())

    out = {}
    for group in IMPORT_GROUPS + ("other",):
        out[f"import.{group}.s"] = metric(statistics.median(
            p["imports"][group] for p in imports), "s")
    for layer in layer_names():
        out[time_metric(layer)] = metric(get(layer).self_s / passes, "s")
    for layer in ("dnn.build", "core.design_point", "core.simulate",
                  "pipeline.search"):
        out[f"{layer}.calls"] = metric(get(layer).calls / passes, "count")
    out["core.simulate.s"] = metric(
        get("core.simulate").inclusive_s / passes, "s")
    out["core.emit.ops"] = metric(get("core.emit").items / passes, "count")
    schedule = get("core.schedule")
    out["core.schedule.ops_per_s"] = metric(
        schedule.items / schedule.self_s if schedule.self_s else 0.0, "1/s")
    out["core.unspanned.s"] = metric(
        sum(get(layer).self_s for layer in UNSPANNED) / passes, "s")

    def counter(name: str) -> float:
        return sum(c[name] for c in tracer.counters)

    hits = counter("repro_pricing_memo_hits_total")
    lookups = hits + counter("repro_pricing_memo_misses_total")
    out["core.pricing.hit_ratio"] = metric(
        hits / lookups if lookups else 0.0, "fraction")
    out["serving.requests"] = metric(
        counter("repro_serving_requests_total") / passes, "count")
    out["cluster.events"] = metric(
        counter("repro_cluster_events_total") / passes, "count")

    tallies = {key: sum(r.tallies[key] for r in traced)
               for key in ("hits", "misses", "read", "written")}
    lookups = tallies["hits"] + tallies["misses"]
    out["campaign.cache.hit_ratio"] = metric(
        tallies["hits"] / lookups if lookups else 0.0, "fraction")
    out["campaign.cache.read_mb"] = metric(
        tallies["read"] / 1e6 / passes, "MB")
    out["campaign.cache.write_mb"] = metric(
        tallies["written"] / 1e6 / passes, "MB")

    traced_s = get(ROOT_LAYER).inclusive_s / passes
    untraced_s = statistics.median(r.seconds for r in untraced)
    out["trace.pass.s"] = metric(traced_s, "s")
    out["trace.overhead_pct"] = metric(
        (traced_s / untraced_s - 1.0) * 100.0, "%")
    return out


def trace_problems(workload_name: str, tracer: Tracer,
                   metrics: dict) -> list[str]:
    problems = [f"wrapped function no longer exists: {path}"
                for path in tracer.missing]
    calls = {s.layer for s in tracer.spans}
    problems += [f"layer {layer} recorded no calls on {workload_name}"
                 for layer in REQUIRED[workload_name] if layer not in calls]
    if workload_name == "claims-warm":
        ratio = metrics["campaign.cache.hit_ratio"]["value"]
        if ratio != 1.0:
            problems.append(f"traced warm pass hit ratio {ratio}, not 1.0")
    return problems


def print_layer_table(workload_name: str, metrics: dict, stats,
                      passes: int) -> None:
    total = stats[ROOT_LAYER].inclusive_s / passes
    print(f"\nself time per traced pass, {workload_name} "
          f"({passes} passes, reference speed):")
    print(f"  {'layer':<24}{'calls':>10}{'self ms':>11}{'share':>8}")
    covered = 0.0
    for layer, entry in sorted(stats.items(),
                               key=lambda kv: -kv[1].self_s):
        self_s = entry.self_s / passes
        covered += self_s
        print(f"  {layer:<24}{entry.calls / passes:>10.1f}"
              f"{self_s * 1e3:>11.2f}{self_s / total * 100:>7.1f}%")
    print(f"  {'all layers':<24}{'':>10}{covered * 1e3:>11.2f}"
          f"{covered / total * 100:>7.1f}%  (traced pass "
          f"{total * 1e3:.2f} ms, tracing overhead "
          f"{metrics['trace.overhead_pct']['value']:+.1f}%)")
    parts = " + ".join(
        f"{layer} {stats.get(layer, LayerStats()).self_s / passes * 1e3:.1f}"
        for layer in UNSPANNED)
    print(f"  outside the program's plan/price/emit/schedule spans: "
          f"{metrics['core.unspanned.s']['value'] * 1e3:.1f} ms = {parts}")


def summarize(records, label: str) -> None:
    walls = [r.wall for r in records]
    factors = [r.factor for r in records]
    samples = sum(len(r.samples) for r in records)
    print(f"{label}: {len(records)} passes, raw median "
          f"{statistics.median(walls) * 1e3:.2f} ms, speed factor median "
          f"{statistics.median(factors):.3f} (range {min(factors):.3f}-"
          f"{max(factors):.3f}), {samples} cell-latency samples")
    report_checks([r.check for r in records], label)


def report_checks(checks, label: str) -> None:
    attempted, failed = tally(checks)
    print(f"{label}: error_rate {failed / attempted:.6f} "
          f"({failed} of {attempted} operations failed)")
    problems = [p for check in checks for p in check.problems]
    for problem in problems[:10]:
        print(f"  FAILED {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="benchmark one workload of the repro simulator")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=workloads.DEFAULT_SEED,
                        help="permutes cell order within the workload "
                             f"(default {workloads.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the passes are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    perfbench.add_source_tree()
    for variable in ("REPRO_CACHE_DIR", "REPRO_SCALAR_CORE"):
        os.environ.pop(variable, None)
    with open(REFERENCE) as handle:
        reference = json.load(handle)["cells"]
    kind = workloads.input_kind(args.workload)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            setups = probes(kind, args.seed, IMPORT_PROBES, importtime=True)
        else:
            setups = probes(kind, args.seed, SETUP_PROBES, importtime=False)
        workload = workloads.make_workload(args.workload, args.seed,
                                           reference, work_dir)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{len(workload.cells)} cells, cell order sha256 "
              f"{workload.order_digest()[:16]}")
        # The untimed first pass (on claims-warm, the one that fills the
        # cache) is checked like the timed ones and counts with them.
        first = workload.prepare()
        report_checks([first], "untimed first pass")
        if not args.trace:
            records = run_passes(workload, args.seconds)
            summarize(records, "untraced")
            metrics, problems = end_to_end(
                workload, records, setups,
                [first] + [r.check for r in records])
        else:
            untraced = run_passes(workload, args.seconds / 2)
            tracer = Tracer()
            traced = run_passes(workload, args.seconds / 2, tracer)
            summarize(untraced, "untraced")
            summarize(traced, "traced")
            records = untraced + traced
            stats = traced_layer_stats(tracer, traced)
            metrics = per_layer(tracer, stats, untraced, traced, setups)
            problems = trace_problems(args.workload, tracer, metrics)
            path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
            with open(path, "w") as handle:
                json.dump(tracer.chrome_trace(TRACE_FILE_PASSES), handle)
            print_layer_table(args.workload, metrics, stats, tracer.passes)
            print(f"trace written to {os.path.relpath(path)}")
        workload.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems:
        print(f"{'TRACE ' if args.trace else ''}FAILED: {problem}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    attempted, failed = tally([first] + [r.check for r in records])
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
