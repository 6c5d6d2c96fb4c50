"""greenlight benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload compare_asymmetric --seed 1 --seconds 50 --trace 0
    python3 -m pytest perfbench/tests     # oracle and self-check tests

With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json with no wrappers on the program's hot paths. With
``--trace 1`` it measures whole passes of the workload for half the time
untraced and half traced, and reports the per-layer metrics, including the
tracing overhead (traced minus untraced median latency). Either way the
last line of standard output is one JSON object: correct, attempted,
failed, metrics. The line before it holds workload figures that are not
metrics of every workload, the sha256 of the workload's canonical outputs
and host facts; perfbench/.out/<run>/ keeps them with the spans.

Every run reports every end-to-end metric, so each metric has one meaning
per workload. An op is the workload's unit of work (see workloads.py):
  latency_ms     compare_asymmetric: one `simulate --compare` on one paired
                 seed, fixed_equal vs adaptive over 900 s; a pass over the 40
                 seeds is the comparison (details: compare_wall_s, wall
                 seconds of the pass, and adaptive_avg_queue_pct,
                 adaptive's change in overall_avg vs fixed_equal in %). Its
                 times are scaled to a nominal host speed (speed.py; the
                 factor is host_speed in the details).
                 pipeline_real: plan age, plan emission (the loop entering
                 the next collect) minus the oldest capture among the
                 records that fed the snapshot; every cycle but the last.
  interval_ms    time between consecutive results; for pipeline_real the
                 cycle period, from consecutive snapshot times.
  .tail          the highest percentile with >= 10 samples beyond it at the
                 workload's fewest ops: p75 for compare_asymmetric, p90 for
                 pipeline_real.
  ops_ok_share   1 - failed/attempted. An op fails if it raises, fails an
                 output check, or is a skipped or stale pipeline cycle.
  front_*        nsga2 fronts against the exact front (exact.py): mean
                 hypervolume ratio and pooled share of exact points found,
                 on fixed inputs, so the same at every seed: the adaptive
                 controller's 40x40 fronts in comparisons on fixed paired
                 seeds on compare_asymmetric, 60x100 runs on a fixed
                 reference set on pipeline_real (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TAIL_LADDER = (99, 95, 90, 75, 50)

# Set-up as a user pays it: a fresh interpreter imports the package and
# loads the workload's config files with the program's own loaders.
SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import json
import greenlight.cli
from greenlight import simulator
from greenlight.core import load_intersection_config
from greenlight.pipeline import PipelineConfig
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    if kind == "intersection":
        load_intersection_config(path)
    elif kind == "scenario":
        raw = json.loads(open(path).read())
        simulator.ArrivalModel.from_dict(raw["demand"])
        simulator.SimOptions.from_dict(raw.get("options", {}))
    else:
        PipelineConfig.load(path)
print(repr(time.perf_counter() - t0))
"""


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def percentile(xs: list[float], p: float):
    """The p-th percentile, or None when a failed run measured nothing."""
    return float(np.percentile(xs, p)) if xs else None


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = root / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_facts(root: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }


def measure_setup(files: list[tuple[str, str]], root: Path) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CHILD]
    for kind, path in files:
        argv += [kind, path]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def install_tracing(tracer, counts: dict) -> None:
    from greenlight import cli, nsga2, objectives, simulator
    from greenlight.pipeline import Aggregator, SyntheticDetector

    def on_run(args, kwargs, front):
        params = args[2] if len(args) > 2 else kwargs["params"]
        counts["lookups"] += params.population_size * (params.generations + 1)
        counts["front_points"] += len(front)

    def on_simulate(args, kwargs, result):
        counts["sim_seconds"] += result[0].time_horizon_s

    tracer.install(objectives, "evaluate", "objectives.evaluate")
    tracer.install(nsga2, "run", "nsga2.run", on_run)
    tracer.install(nsga2, "fast_non_dominated_sort", "nsga2.sort")
    tracer.install(nsga2, "crowding_distance", "nsga2.crowding")
    for fn in ("tournament_select", "crossover", "mutate"):
        tracer.install(nsga2, fn, "nsga2.variation")
    tracer.install(nsga2, "_update_archive", "nsga2.archive")
    tracer.install(nsga2, "select_operating_point", "nsga2.select")
    tracer.install(simulator, "simulate", "simulator.simulate", on_simulate)
    tracer.install(simulator.FixedTimeController, "next_plan", "simulator.controller")
    tracer.install(simulator.AdaptiveController, "next_plan", "simulator.controller")
    tracer.install(cli, "dump_json", "cli.artifacts")
    tracer.install(cli, "_write_timeseries", "cli.artifacts")
    tracer.install(Aggregator, "collect", "pipeline.collect")
    tracer.install(SyntheticDetector, "detect", "pipeline.detect")


def layer_metrics(tracer, counts: dict, traced, untraced) -> dict:
    ops = max(1, traced.attempted)

    def per_op(v):
        return v / ops

    evals = tracer.calls.get("objectives.evaluate", 0)
    runs = tracer.calls.get("nsga2.run", 0)
    layer = traced.layer
    frames = layer.get("frames", 0)
    detects = tracer.calls.get("pipeline.detect", 0)
    collects = tracer.calls.get("pipeline.collect", 0)
    optimize_ms = layer.get("optimize_ms", [])
    base = statistics.median(untraced.latencies_ms)
    overhead = statistics.median(traced.latencies_ms) - base
    return {
        "objectives.evaluate.calls": per_op(evals),
        "objectives.evaluate.self_ms": per_op(tracer.self_ms("objectives.evaluate")),
        "nsga2.cache_hit_ratio": 1 - evals / counts["lookups"] if counts["lookups"] else 0.0,
        "nsga2.run.calls": per_op(runs),
        "nsga2.run.self_ms": per_op(tracer.self_ms("nsga2.run")),
        "nsga2.sort.calls": per_op(tracer.calls.get("nsga2.sort", 0)),
        "nsga2.sort.self_ms": per_op(tracer.self_ms("nsga2.sort")),
        "nsga2.crowding.self_ms": per_op(tracer.self_ms("nsga2.crowding")),
        "nsga2.variation.self_ms": per_op(tracer.self_ms("nsga2.variation")),
        "nsga2.archive.self_ms": per_op(tracer.self_ms("nsga2.archive")),
        "nsga2.archive.front_size": counts["front_points"] / runs if runs else 0.0,
        "nsga2.select.self_ms": per_op(tracer.self_ms("nsga2.select")),
        "simulator.step_us": (tracer.self_ms("simulator.simulate") * 1e3 / counts["sim_seconds"]
                              if counts["sim_seconds"] else 0.0),
        "simulator.controller.calls": per_op(tracer.calls.get("simulator.controller", 0)),
        "simulator.controller.ms": per_op(tracer.total_ms("simulator.controller")),
        "cli.artifacts.write_ms": per_op(tracer.total_ms("cli.artifacts")),
        "cli.artifacts.bytes": layer.get("artifact_bytes", 0.0),
        "pipeline.collect.wait_ms": (tracer.total_ms("pipeline.collect") / collects
                                     if collects else 0.0),
        "pipeline.detect.ms": tracer.total_ms("pipeline.detect") / detects if detects else 0.0,
        "pipeline.optimize_ms": statistics.median(optimize_ms) if optimize_ms else 0.0,
        "pipeline.frames.extracted": per_op(frames),
        "pipeline.frames.detected_ratio": detects / frames if frames else 0.0,
        "pipeline.stale_links": layer.get("stale_links", 0),
        "pipeline.skipped_cycles": layer.get("skipped_cycles", 0),
        "pipeline.detector_errors": layer.get("detector_errors", 0),
        "trace.overhead_ms": overhead,
        "trace.overhead_share": overhead / base,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "greenlight" / "__init__.py").is_file():
        print("error: run from the root of a greenlight checkout (src/greenlight "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads
    from spans import Tracer

    out = HERE / ".out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    workloads.cleanup(out)
    inputs = workloads.make_inputs(args.workload, args.seed)
    (out / "inputs.json").write_text(json.dumps(inputs, sort_keys=True))
    setup_times = measure_setup(workloads.setup_files(args.workload, inputs, out), root)

    runner = workloads.RUNNERS[args.workload]
    min_ops = workloads.MIN_OPS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_facts(root),
              "setup_s": setup_times}
    if args.trace == 0:
        o = runner(inputs, args.seconds, min_ops, out, quality=True)
        checked = [o]
        p_lat = tail_percentile(min(min_ops, len(o.latencies_ms)))
        p_int = tail_percentile(min(min_ops, len(o.intervals_ms)))
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_ms.p50": percentile(o.latencies_ms, 50),
            "latency_ms.tail": percentile(o.latencies_ms, p_lat),
            "interval_ms.p50": percentile(o.intervals_ms, 50),
            "interval_ms.tail": percentile(o.intervals_ms, p_int),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_share": 1 - o.failed / o.attempted if o.attempted else 0.0,
            "front_hv_ratio": o.hv_ratio,
            "front_recall": o.recall,
        }
        kinds = spec["end_to_end"]
        result["samples"] = {"latency_n": len(o.latencies_ms), "latency_tail_p": p_lat,
                             "interval_n": len(o.intervals_ms), "interval_tail_p": p_int}
    else:
        half = args.seconds / 2
        untraced = runner(inputs, half, 1, out, quality=False, whole_passes=True)
        tracer, counts = Tracer(), {"lookups": 0, "front_points": 0, "sim_seconds": 0}
        install_tracing(tracer, counts)
        try:
            traced = runner(inputs, half, 1, out, quality=False, tracer=tracer,
                            whole_passes=True)
        finally:
            tracer.uninstall()
        o = traced
        checked = [untraced, traced]
        values = layer_metrics(tracer, counts, traced, untraced)
        kinds = spec["per_layer"]
        tracer.dump(out / "spans.csv")
        result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}

    errors = [e for c in checked for e in c.errors]
    attempted = sum(c.attempted for c in checked)
    failed = sum(c.failed for c in checked)
    metrics = {}
    for k in kinds:
        v = values[k["name"]]
        if v is None:
            errors.append(f"metric {k['name']} was not measured")
            v = 0.0
        metrics[k["name"]] = {"value": v, "unit": k["unit"]}
    result.update(details=o.details, digest=o.digest, errors=errors[:50],
                  attempted=attempted, failed=failed, metrics=metrics)
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    workloads.cleanup(out)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for e in errors[:10]:
        print(f"check failed: {e}")
    print(json.dumps({"workload": args.workload, "details": o.details,
                      "digest": o.digest, "host": result["host"]}, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
