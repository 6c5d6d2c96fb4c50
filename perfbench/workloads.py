"""The benchmark workloads: inputs from a seed, the timed op loop, checks.

Every workload is a list of inputs that one op consumes in turn; one pass
over the list is the unit of repetition. A run issues ops until it has
measured for the requested seconds and made at least ``min_ops`` ops and
one pass (traced runs end on a whole pass), then checks the outputs: the
first pass is checked in full, and the first op must reproduce the bytes of
the warm-up op before it and every later op those its input gave in the
first pass.

Ops:
  compare_asymmetric  `greenlight simulate --compare --seed s` on the bundled
                      scenario; one caller (closed loop)
  pipeline_real       one pipeline cycle; cameras are open loop at a fixed fps
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from greenlight import cli, nsga2
from greenlight.core import (
    IntersectionConfig,
    QueueState,
    canonical_json,
    load_intersection_config,
    validate_plan,
)
from greenlight.pipeline import Aggregator, PipelineConfig, run_pipeline

import exact
import speed

ASSETS = Path("src") / "greenlight" / "assets"
PALASHI = ASSETS / "palashi5.json"
ASYMMETRIC = ASSETS / "scenario_asymmetric.json"
PIPELINE_DEMO = ASSETS / "pipeline_demo.json"

# Paired seeds per pass. The paper's comparison uses 10; 40 cuts the
# seed-to-seed spread of the per-run figures to a third, and one pass fills
# a run.
COMPARE_PASS = 40
# Front quality is measured after the timed loop on fixed inputs, so that
# it is the same at every workload seed and any drop is the optimizer's.
# compare_asymmetric: the adaptive controller's 40x40 fronts in comparisons
# on these paired seeds. pipeline_real (one front per run): nsga2.run at the
# shipped defaults on a fixed reference set of snapshots.
COMPARE_PROBE_SEEDS = (1, 2, 3, 4, 5)
PROBE_SNAPSHOTS = 8
PIPELINE_TIME_SCALE = 0.25


@dataclass
class Outcome:
    """What one measured segment of a workload produced."""

    latencies_ms: list[float] = field(default_factory=list)
    intervals_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)   # failed output checks
    digest: str = ""
    hv_ratio: Optional[float] = None
    recall: Optional[float] = None
    details: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)          # workload-side layer data


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _palashi() -> IntersectionConfig:
    return load_intersection_config(PALASHI)


def _snapshots(rng: random.Random, n: int) -> list[dict]:
    """Palashi5 queues from light (f1 reaches 0 at short greens) to saturated.

    Load levels sit on a fixed grid over [0.15, 1.65] of one max-green
    discharge (30 motorized, 15 non-motorized); ``rng`` deals a fixed set of
    link shares to the links and jitters each count by one vehicle.
    """
    out = []
    for k in range(n):
        level = 0.15 + 1.5 * (k + 0.5) / n
        shares = rng.sample([0.3, 0.55, 0.8, 1.05, 1.3], 5)
        walkers = rng.sample([0.5, 0.625, 0.75, 0.875, 1.0], 5)
        out.append({
            "motorized": [max(0, round(level * 30 * w) + rng.randint(-1, 1))
                          for w in shares],
            "non_motorized": [max(0, round(level * 15 * w * r) + rng.randint(-1, 1))
                              for w, r in zip(shares, walkers)],
        })
    rng.shuffle(out)
    return out


def make_inputs(name: str, seed: int) -> dict:
    """All inputs of a workload, as plain JSON data, from the workload seed."""
    rng = _rng(name, seed)
    if name == "compare_asymmetric":
        return {"seeds": rng.sample(range(1, 100_000), COMPARE_PASS)}
    if name == "pipeline_real":
        raw = json.loads(PIPELINE_DEMO.read_text())
        raw["intersection"] = _palashi().to_dict()
        for cam in raw["cameras"]:
            scale = rng.uniform(0.5, 1.5)
            cam["motorized_in"] = round(cam["motorized_in"] * scale)
            cam["non_motorized_in"] = round(cam["non_motorized_in"] * scale)
        raw.update(timing="real", time_scale=PIPELINE_TIME_SCALE, seed=seed)
        return {"config": raw}
    raise ValueError(f"unknown workload {name!r}")


def setup_files(name: str, inputs: dict, out: Path) -> list[tuple[str, str]]:
    """Write the workload's config files; return (kind, path) pairs to load."""
    if name == "compare_asymmetric":
        return [("scenario", str(ASYMMETRIC))]
    path = out / "pipeline_real.json"
    path.write_text(json.dumps(inputs["config"], indent=1))
    return [("pipeline", str(path))]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _loop(items: list, seconds: float, min_ops: int,
          op: Callable[[int, object], object], tracer=None,
          whole_passes: bool = False
          ) -> tuple[list, list[float], list[float], list[float]]:
    """Run ops over ``items`` in turn until both limits are met.

    ``whole_passes`` ends on a pass boundary, so the mix of inputs, and with
    it the per-op counts, is the same in every run. Returns (warm-up result,
    results, latencies_ms, intervals_ms, host-speed factor): the times are
    scaled to nominal speed by the host-speed job sampled after every op,
    the first interval is counted from the start and none covers the job. An
    op that raises yields its exception as the result.
    """
    # One untimed, untraced warm-up op on the first input: lazy imports,
    # first file writes. Its output is a repeat to check the first op by.
    if tracer is not None:
        tracer.paused = True
    try:
        warm = op(-1, items[0])
    except Exception as exc:
        warm = exc
    if tracer is not None:
        tracer.paused = False
    results, lat, gaps, samples = [], [], [], []
    start = prev = time.perf_counter()
    k = 0
    min_ops = max(min_ops, len(items))
    while (k < min_ops or time.perf_counter() - start < seconds
           or (whole_passes and k % len(items))):
        if tracer is not None:
            tracer.op_id = k
        t0 = time.perf_counter()
        try:
            res = op(k, items[k % len(items)])
        except Exception as exc:  # counted as a failed op
            res = exc
        t1 = time.perf_counter()
        results.append(res)
        lat.append((t1 - t0) * 1e3)
        gaps.append((t1 - prev) * 1e3)
        samples += speed.sample()
        prev = time.perf_counter()
        k += 1
    if tracer is not None:
        tracer.paused = True  # what follows is the benchmark's own checking
    k = speed.scale(samples)
    return warm, results, [x * k for x in lat], [x * k for x in gaps], k


def _check_repeats(warm, results: list, pass_len: int, digest_of: Callable,
                   outcome: Outcome) -> set[int]:
    """Digest each op's output; the first op must repeat the warm-up op and
    ops after the first pass must repeat their first-pass op.

    Returns the indices of the ops that raised or did not repeat.
    """
    digests, bad = [], set()
    for k, res in enumerate(results):
        outcome.attempted += 1
        if isinstance(res, Exception):
            bad.add(k)
            outcome.errors.append(f"op {k} raised {type(res).__name__}: {res}")
            digests.append(None)
            continue
        d = digest_of(res)
        digests.append(d)
        if k >= pass_len and d != digests[k % pass_len]:
            bad.add(k)
            outcome.errors.append(f"op {k} output differs from its first-pass repeat")
    if digests[0] is not None and (isinstance(warm, Exception)
                                   or digest_of(warm) != digests[0]):
        bad.add(0)
        outcome.errors.append("op 0 output differs from the warm-up op's")
    first = [d or "" for d in digests[:pass_len]]
    outcome.digest = _sha("\n".join(first).encode())
    return bad


def _model(cfg: IntersectionConfig) -> tuple:
    """The config fields the exact oracle needs, in its argument order."""
    return (cfg.min_green_s, cfg.max_green_s, cfg.inter_green_s,
            cfg.sat_flow_motorized, cfg.sat_flow_non_motorized)


def _front_quality(samples: list[tuple[tuple, tuple, set]],
                   cfg: IntersectionConfig) -> tuple[float, float, int, int]:
    """Mean hypervolume ratio and pooled recall of found fronts vs the exact ones.

    ``samples`` holds (motorized, non_motorized, found (f1, f2) points).
    """
    ratios, found, total = [], 0, 0
    for m, nm, points in samples:
        true = {(f1, f2) for f1, f2, _ in exact.exact_front(m, nm, *_model(cfg))}
        ref = exact.reference_point(m, nm, *_model(cfg))
        ratios.append(exact.hypervolume(points, ref) / exact.hypervolume(true, ref))
        found += len(true & points)
        total += len(true)
    return sum(ratios) / len(ratios), found / total, found, total


def _objective_points(front) -> set:
    return {(ind.objectives.f1, ind.objectives.f2) for ind in front}


def _probe() -> list[tuple[tuple, tuple, set]]:
    cfg, params = _palashi(), nsga2.OptimizerParams()
    samples = []
    for s in _snapshots(_rng("probe", 0), PROBE_SNAPSHOTS):
        q = QueueState(tuple(s["motorized"]), tuple(s["non_motorized"]))
        samples.append((q.motorized, q.non_motorized,
                        _objective_points(nsga2.run(q, cfg, params))))
    return samples


# ------------------------------------------------------------- compare_asymmetric

@contextlib.contextmanager
def _capture_runs(sink: list):
    """Record (queue, front points) of every nsga2.run call while active."""
    original = nsga2.run

    def capturing(queue, *args, **kwargs):
        front = original(queue, *args, **kwargs)
        sink.append((queue.motorized, queue.non_motorized, _objective_points(front)))
        return front

    nsga2.run = capturing
    try:
        yield
    finally:
        nsga2.run = original


def _mean_dir_bytes(dirs: list[Path]) -> float:
    """Mean bytes of the artifacts one op wrote."""
    sizes = [sum(f.stat().st_size for f in d.iterdir()) for d in dirs]
    return sum(sizes) / len(sizes) if sizes else 0.0


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_compare_asymmetric(inputs: dict, seconds: float, min_ops: int, out: Path,
                           quality: bool, tracer=None,
                           whole_passes: bool = False) -> Outcome:
    seeds = inputs["seeds"]

    def op(k, seed):
        d = out / f"compare_{k}"
        rc = _cli(["simulate", "--scenario", str(ASYMMETRIC), "--compare",
                   "--seed", str(seed), "--out", str(d)])
        if rc != 0:
            raise RuntimeError(f"greenlight simulate --compare exited {rc}")
        return d

    warm, results, lat, gaps, host_speed = _loop(seeds, seconds, min_ops, op,
                                                 tracer, whole_passes)
    o = Outcome(latencies_ms=lat, intervals_ms=gaps)
    bad = _check_repeats(warm, results, len(seeds),
                         lambda d: _sha((d / "comparison.json").read_bytes()), o)
    first = [d for d in results[:len(seeds)] if not isinstance(d, Exception)]
    o.layer["artifact_bytes"] = _mean_dir_bytes(first)
    # Later passes repeat the first byte for byte, so a first-pass report
    # that fails its check fails for every repeat of its seed too.
    bad_report = set()
    avg = {"fixed_equal": [], "adaptive": []}
    for k, (seed, res) in enumerate(zip(seeds, results[:len(seeds)])):
        if isinstance(res, Exception):
            continue
        report = json.loads((res / "comparison.json").read_bytes())
        for name in avg:
            per_seed = report["controllers"][name]["per_seed"]
            if report["seeds"] != [seed] or len(per_seed) != 1:
                o.errors.append(f"seed {seed}: comparison covers {report['seeds']}")
                bad_report.add(k)
            avg[name].append(per_seed[0]["overall_avg"])
    bad |= {k for k in range(len(results)) if k % len(seeds) in bad_report}
    o.failed = len(bad)
    if avg["fixed_equal"] and len(avg["adaptive"]) == len(avg["fixed_equal"]):
        o.details["adaptive_avg_queue_pct"] = 100.0 * (
            sum(avg["adaptive"]) / sum(avg["fixed_equal"]) - 1.0)
    o.details["compare_wall_s"] = sum(lat[:len(seeds)]) / 1e3 / host_speed
    o.details["host_speed"] = host_speed
    if quality:
        captured: list = []
        with _capture_runs(captured):
            for seed in COMPARE_PROBE_SEEDS:
                rc = _cli(["simulate", "--scenario", str(ASYMMETRIC), "--compare",
                           "--seed", str(seed), "--out", str(out / f"probe_{seed}")])
                if rc != 0:
                    o.errors.append(f"probe seed {seed}: simulate --compare exited {rc}")
        if captured:
            o.hv_ratio, o.recall, found, total = _front_quality(captured, _palashi())
            o.details["exact_points_found"] = f"{found}/{total} (probe)"
    return o


# ------------------------------------------------------------------ pipeline_real

@contextlib.contextmanager
def _watch_aggregator(submits: list, collects: list, tracer=None):
    """Log (camera, capture ms, submit start ms) per record and (entry ms,
    return ms, produced a queue) per collect, on the pipeline's monotonic
    clock.

    A record fed a snapshot iff its submit started before that collect
    returned; the aggregator takes the snapshot under its lock just before.
    A cycle's plan is emitted when the loop enters the next collect.
    """
    submit, collect = Aggregator.submit, Aggregator.collect

    def watched_submit(self, record):
        submits.append((record.camera_id, record.frame_ts_ms, time.monotonic() * 1e3))
        return submit(self, record)

    def watched_collect(self, *args, **kwargs):
        entered = time.monotonic() * 1e3
        res = collect(self, *args, **kwargs)
        collects.append((entered, time.monotonic() * 1e3, res is not None))
        if tracer is not None:
            tracer.op_id = len(collects)
        return res

    Aggregator.submit, Aggregator.collect = watched_submit, watched_collect
    try:
        yield
    finally:
        Aggregator.submit, Aggregator.collect = submit, collect


def pipeline_cycles(seconds: float, config: dict) -> int:
    """Cycles that fill ``seconds`` at the nominal detection-bound period."""
    period_ms = config["detector"]["delay_ms"] * config["time_scale"]
    return max(2, math.ceil(seconds * 1e3 / period_ms) + 1)


def run_pipeline_real(inputs: dict, seconds: float, min_ops: int, out: Path,
                      quality: bool, tracer=None,
                      whole_passes: bool = False) -> Outcome:
    cfg = PipelineConfig.from_dict(inputs["config"])
    cycles = max(min_ops, pipeline_cycles(seconds, inputs["config"]))
    submits, collects = [], []
    o = Outcome()
    with _watch_aggregator(submits, collects, tracer):
        try:
            result = run_pipeline(cfg, cycles)
        except Exception as exc:  # the whole run is lost: every cycle failed
            o.attempted, o.failed = cycles, cycles
            o.errors.append(f"run_pipeline raised {type(exc).__name__}: {exc}")
            return o
        finally:
            if tracer is not None:
                tracer.paused = True

    # Snapshot time: return of the collect that produced the cycle. Emission:
    # entry of the next collect; the last cycle has none, so no plan age.
    done = [(ret, collects[i + 1][0] if i + 1 < len(collects) else None)
            for i, (_, ret, produced) in enumerate(collects) if produced]
    o.attempted = cycles + result.skipped_cycles
    if len(result.cycles) != cycles:
        o.errors.append(f"{len(result.cycles)} cycles for {cycles} requested")
    # Cycles that fail any check; a missing cycle fails too.
    bad = {c.cycle_id for c in result.cycles if c.stale_links}

    intersection = cfg.intersection
    plans = []
    for c, (t_snap, t_emit) in zip(result.cycles, done):
        if t_emit is not None:
            latest: dict[int, int] = {}
            for cam, capture_ms, started_ms in submits:
                if started_ms < t_snap:
                    latest[cam] = capture_ms
            o.latencies_ms.append(t_emit - min(latest.values()))
        violations = validate_plan(c.plan, intersection)
        if violations:
            o.errors.append(f"cycle {c.cycle_id}: " + "; ".join(violations))
            bad.add(c.cycle_id)
        led = c.latency.to_dict()
        total = led["t_extraction_ms"] + led["t_inference_ms"] + led["t_optimization_ms"]
        if not math.isclose(led["t_latency_ms"], total, rel_tol=1e-12, abs_tol=1e-9):
            o.errors.append(f"cycle {c.cycle_id}: ledger {led['t_latency_ms']} != {total}")
            bad.add(c.cycle_id)
        plans.append(canonical_json({"plan": c.plan.to_dict(),
                                     "objectives": c.objectives,
                                     "queue": [c.queue.motorized, c.queue.non_motorized]}))
    snaps = [t for t, _ in done]
    o.intervals_ms = [b - a for a, b in zip(snaps, snaps[1:])]
    o.digest = _sha("\n".join(plans).encode())

    # Every cycle sees the same camera counts, so its front is the one
    # nsga2.run gives on that queue; recompute it to check the plans.
    queues = {(c.queue.motorized, c.queue.non_motorized) for c in result.cycles}
    for m, nm in sorted(queues):
        q = QueueState(m, nm)
        front = nsga2.run(q, intersection, cfg.optimizer)
        plan = nsga2.select_operating_point(front, cfg.policy, intersection)
        for c in result.cycles:
            if (c.queue.motorized, c.queue.non_motorized) == (m, nm) and c.plan != plan:
                o.errors.append(f"cycle {c.cycle_id}: plan differs from a rerun")
                bad.add(c.cycle_id)
    o.failed = result.skipped_cycles + len(bad) + max(0, cycles - len(result.cycles))
    if quality:
        o.hv_ratio, o.recall, found, total = _front_quality(_probe(), intersection)
        o.details["exact_points_found"] = f"{found}/{total} (probe)"

    status = result.camera_status
    o.layer.update(
        optimize_ms=[c.latency.optimization_ms for c in result.cycles],
        frames=sum(s.frames for s in status),
        detector_errors=sum(s.detector_errors for s in status),
        stale_links=sum(len(c.stale_links) for c in result.cycles),
        skipped_cycles=result.skipped_cycles,
    )
    return o


RUNNERS = {
    "compare_asymmetric": run_compare_asymmetric,
    "pipeline_real": run_pipeline_real,
}

# Fewest ops per measured run. The tail percentile needs >= 10 samples
# beyond it: p75 from 40 samples, p90 from 100; compare_asymmetric makes
# at least one pass. pipeline_real has one
# interval and one plan age fewer than cycles.
MIN_OPS = {
    "compare_asymmetric": 40,
    "pipeline_real": 101,
}


def cleanup(out: Path) -> None:
    """Remove per-op artifact directories; keep configs, results and traces."""
    for d in out.iterdir():
        if d.is_dir():
            shutil.rmtree(d)
