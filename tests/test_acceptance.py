"""End-to-end acceptance suite.

One test per acceptance criterion, each checked at its stated tolerance
and runtime budget. Oracles are coded straight-line and independently of
the package internals so a shared bug cannot hide. Each test prints a
PASS line (visible with ``pytest -s``); with ``pytest -v`` the per-test
verdicts serve the same purpose.
"""

import itertools
import json
import math
import random
import threading
import time

import numpy as np
import pytest
from scipy import stats

from greenlight import nsga2, objectives, simulator
from greenlight.cli import main
from greenlight.core import IntersectionConfig, QueueState, SignalPlan
from greenlight.nsga2 import OptimizerParams, plan_from_genome
from greenlight.pipeline import Frame, FrameSlot, PipelineConfig, run_pipeline
from greenlight.simulator import (
    ArrivalModel,
    EmergencyEvent,
    FixedTimeController,
    SimOptions,
    simulate,
)


def announce(n, text):
    print(f"PASS criterion {n}: {text}")


# --------------------------------------------------------------------------
# Criterion 1: objective correctness against a straight-line oracle.
# --------------------------------------------------------------------------


def oracle_objectives(motorized, non_motorized, greens, pad, inter_green,
                      rate_m, rate_nm):
    """Independent re-statement of the two objectives, no package calls."""
    L = len(greens)
    residual = 0
    for i in range(L):
        residual += max(0, motorized[i] - math.floor(rate_m * greens[i]))
        residual += max(0, non_motorized[i] - math.floor(rate_nm * greens[i]))
    cycle = 0
    for g in greens:
        cycle += g + 2 * pad
    cycle += L * inter_green
    total_red = 0
    for g in greens:
        total_red += cycle - (g + 2 * pad)
    return residual, total_red


class TestCriterion1ObjectiveOracle:
    def test_1000_random_triples_exact(self):
        t0 = time.perf_counter()
        rng = random.Random(1234)
        for _ in range(1000):
            L = rng.randint(2, 6)
            min_g = rng.randint(3, 15)
            max_g = min_g + rng.randint(5, 50)
            inter = rng.randint(0, 5)
            rate_m = rng.uniform(0.1, 2.0)
            rate_nm = rng.uniform(0.05, 1.0)
            pad = rng.randint(0, 4)
            cfg = IntersectionConfig(
                num_links=L, min_green_s=min_g, max_green_s=max_g,
                inter_green_s=inter, sat_flow_motorized=rate_m,
                sat_flow_non_motorized=rate_nm,
            )
            motorized = tuple(rng.randint(0, 120) for _ in range(L))
            non_motorized = tuple(rng.randint(0, 60) for _ in range(L))
            greens = tuple(rng.randint(min_g, max_g) for _ in range(L))
            queue = QueueState(motorized=motorized, non_motorized=non_motorized)
            plan = plan_from_genome(greens, cfg, guidance_pad_s=pad)
            got = objectives.evaluate(plan, queue, cfg)
            want_f1, want_f2 = oracle_objectives(
                motorized, non_motorized, greens, pad, inter, rate_m, rate_nm
            )
            assert (got.f1, got.f2) == (want_f1, want_f2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        announce(1, f"1000 triples exact in {elapsed:.2f} s")


# --------------------------------------------------------------------------
# Criterion 2: NSGA-II front equals the exhaustive Pareto front.
# --------------------------------------------------------------------------


def brute_force_front(queue, cfg):
    """Enumerate every genome; return the non-dominated objective vectors."""
    lo, hi = cfg.min_green_s, cfg.max_green_s
    points = set()
    for genome in itertools.product(range(lo, hi + 1), repeat=cfg.num_links):
        o = objectives.evaluate(plan_from_genome(genome, cfg), queue, cfg)
        points.add((o.f1, o.f2))
    return {
        p for p in points
        if not any(q[0] <= p[0] and q[1] <= p[1] and q != p for q in points)
    }


class TestCriterion2OptimizerOracle:
    def test_front_matches_enumeration(self):
        t0 = time.perf_counter()
        cases = [
            (2, (50, 10), (8, 2)),
            (3, (50, 10, 25), (8, 2, 5)),
        ]
        for L, motorized, non_motorized in cases:
            cfg = IntersectionConfig(
                num_links=L, min_green_s=10, max_green_s=15, inter_green_s=3,
            )  # 6 discrete green values per link
            queue = QueueState(motorized=motorized, non_motorized=non_motorized)
            expected = brute_force_front(queue, cfg)
            for seed in range(5):
                params = OptimizerParams(
                    population_size=60, generations=100, rng_seed=seed
                )
                front = nsga2.run(queue, cfg, params)
                got = {(ind.objectives.f1, ind.objectives.f2) for ind in front}
                assert got == expected, f"L={L} seed={seed}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        announce(2, f"front == enumeration on L=2,3 x 5 seeds in {elapsed:.2f} s")


# --------------------------------------------------------------------------
# Criterion 3: non-dominated sort and crowding against an O(n^2) oracle.
# --------------------------------------------------------------------------


def oracle_fronts(points):
    """Peel Pareto fronts by repeated pairwise domination scans."""
    remaining = set(range(len(points)))
    fronts = []
    while remaining:
        front = set()
        for p in remaining:
            dominated = False
            for q in remaining:
                if q == p:
                    continue
                a, b = points[q], points[p]
                if a[0] <= b[0] and a[1] <= b[1] and a != b:
                    dominated = True
                    break
                # equal points never dominate each other
            if not dominated:
                front.add(p)
        # duplicates of front members belong to the same front
        fronts.append(front)
        remaining -= front
    return fronts


class TestCriterion3SortAndCrowding:
    def test_200_random_populations_match_oracle(self):
        rng = random.Random(99)
        for trial in range(200):
            n = rng.randint(1, 64)
            points = [
                (rng.randint(0, 30), rng.randint(0, 30)) for _ in range(n)
            ]
            fronts, ranks = nsga2.fast_non_dominated_sort(points)
            got = [set(f) for f in fronts]
            want = oracle_fronts(points)
            assert got == want, f"trial {trial}"
            for rank, front in enumerate(got):
                for i in front:
                    assert ranks[i] == rank
        announce(3, "200 random populations match the pairwise oracle")

    def test_crowding_extremes_infinite(self):
        rng = random.Random(5)
        points = sorted({(rng.randint(0, 50), rng.randint(0, 50))
                         for _ in range(12)})
        dists = nsga2.crowding_distance(points)
        by_f1 = sorted(range(len(points)), key=lambda i: points[i][0])
        by_f2 = sorted(range(len(points)), key=lambda i: points[i][1])
        for idx in (by_f1[0], by_f1[-1], by_f2[0], by_f2[-1]):
            assert dists[idx] == math.inf

    def test_three_point_example(self):
        front = [(0, 100), (10, 50), (40, 40)]
        assert nsga2.crowding_distance(front) == [math.inf, 2.0, math.inf]
        announce(3, "crowding extremes infinite; 3-point front = [inf, 2.0, inf]")


# --------------------------------------------------------------------------
# Criterion 4: latency-ledger identities recomputable from raw samples.
# --------------------------------------------------------------------------


def pipeline_config(**overrides):
    base = {
        "intersection": {"num_links": 2, "min_green_s": 5, "max_green_s": 30,
                         "inter_green_s": 2},
        "cameras": [
            {"fps": 40, "motorized_in": 20, "non_motorized_in": 5,
             "extract_delay_ms": 3, "jitter_ms": 1},
            {"fps": 40, "motorized_in": 4, "non_motorized_in": 1,
             "extract_delay_ms": 3, "jitter_ms": 1},
        ],
        "detector": {"delay_ms": 25, "jitter_ms": 5},
        "window_ms": 300,
        "optimizer": {"population_size": 12, "generations": 10, "rng_seed": 0},
        "seed": 0,
    }
    base.update(overrides)
    return PipelineConfig.from_dict(base)


def check_ledger(result):
    rel = 1e-9
    for entry in (c.latency for c in result.cycles):
        ext = entry.extraction_samples_ms
        inf = entry.inference_samples_ms
        t_ext = sum(ext) / len(ext) if ext else 0.0
        t_inf = sum(inf) / len(inf) if inf else 0.0
        assert math.isclose(entry.t_extraction_ms, t_ext, rel_tol=rel)
        assert math.isclose(entry.t_inference_ms, t_inf, rel_tol=rel)
        assert math.isclose(
            entry.t_latency_ms, t_ext + t_inf + entry.t_optimization_ms,
            rel_tol=rel,
        )
    per_cycle = [c.latency.t_latency_ms for c in result.cycles]
    assert math.isclose(
        result.latency_report()["t_latency_ms"],
        sum(per_cycle) / len(per_cycle), rel_tol=rel
    )


class TestCriterion4LedgerIdentities:
    def test_sim_mode_ledger(self):
        result = run_pipeline(pipeline_config(timing="sim"), 6)
        assert len(result.cycles) == 6
        check_ledger(result)

    def test_real_mode_ledger(self):
        result = run_pipeline(pipeline_config(timing="real"), 3)
        assert len(result.cycles) == 3
        check_ledger(result)
        announce(4, "ledger identities recomputed exactly (rel 1e-9)")


# --------------------------------------------------------------------------
# Criterion 5: per-cycle latency magnitude and trend with the reference
# detector delay of 1994.8 ms per frame.
# --------------------------------------------------------------------------


class TestCriterion5LatencyMagnitude:
    def test_fifty_cycles_in_band_no_upward_trend(self):
        cfg = PipelineConfig.from_dict({
            "intersection": {
                "num_links": 5, "min_green_s": 10, "max_green_s": 60,
                "inter_green_s": 3,
            },
            # The lowest extraction (75 - 4 ms) plus the lowest inference
            # (1994.8 - 60 ms) is 2005.8 ms, so the 2000 ms floor holds on
            # the emulated stage data alone, whatever the optimizer takes.
            "cameras": [
                {"fps": 10, "motorized_in": m, "non_motorized_in": nm,
                 "extract_delay_ms": 75, "jitter_ms": 4}
                for m, nm in [(42, 14), (11, 3), (27, 9), (8, 2), (19, 6)]
            ],
            "detector": {"delay_ms": 1994.8, "jitter_ms": 60},
            "window_ms": 150,
            "optimizer": {"population_size": 60, "generations": 100,
                          "rng_seed": 0},
            "timing": "real",
            # compress emulated stage sleeps; reported samples stay nominal
            "time_scale": 0.02,
            "seed": 0,
        })
        result = run_pipeline(cfg, 50)
        per_cycle = [c.latency.t_latency_ms for c in result.cycles]
        assert len(per_cycle) == 50
        for t in per_cycle:
            assert 2_000.0 <= t <= 15_000.0
        fit = stats.linregress(range(len(per_cycle)), per_cycle)
        # one-sided test for an upward trend at 95%
        p_up = fit.pvalue / 2 if fit.slope > 0 else 1.0 - fit.pvalue / 2
        drift = fit.slope * (len(per_cycle) - 1)
        upward = (
            fit.slope > 0
            and p_up < 0.05
            and abs(drift) > 0.01 * np.mean(per_cycle)
        )
        assert not upward, f"slope={fit.slope:.3f} ms/cycle p={p_up:.4f}"
        announce(
            5,
            f"T_latency_i in [{min(per_cycle):.0f}, {max(per_cycle):.0f}] ms "
            f"over 50 cycles, slope {fit.slope:+.2f} ms/cycle (p_up={p_up:.2f})",
        )


# --------------------------------------------------------------------------
# Criterion 6: buffer freshness and boundedness at a 10:1 rate ratio.
# --------------------------------------------------------------------------


class TestCriterion6BufferFreshness:
    DURATION_S = 60.0
    PRODUCER_HZ = 50.0
    CONSUMER_HZ = 5.0
    CAMERAS = 5

    def test_ten_to_one_for_sixty_seconds(self):
        stop = threading.Event()
        slots = [FrameSlot() for _ in range(self.CAMERAS)]
        # produced[i] counts frames fully published to slot i; it is bumped
        # only after put() returns, so the slot always holds >= produced[i]-1.
        produced = [0] * self.CAMERAS
        consumed = [[] for _ in range(self.CAMERAS)]  # (floor_seq, taken_seq)

        def producer(i):
            seq = 0
            period = 1.0 / self.PRODUCER_HZ
            while not stop.is_set():
                slots[i].put(Frame(camera_id=i, seq=seq, capture_ts_ms=0.0,
                                   payload=None))
                produced[i] = seq + 1
                seq += 1
                time.sleep(period)

        def consumer(i):
            period = 1.0 / self.CONSUMER_HZ
            while not stop.is_set():
                time.sleep(period)
                floor_seq = produced[i]  # fully published before this take
                f = slots[i].take(timeout=1.0)
                if f is not None:
                    consumed[i].append((floor_seq, f.seq))

        threads = [threading.Thread(target=fn, args=(i,), daemon=True)
                   for i in range(self.CAMERAS) for fn in (producer, consumer)]
        for t in threads:
            t.start()
        time.sleep(self.DURATION_S)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)

        leftover = 0
        for i in range(self.CAMERAS):
            takes = consumed[i]
            assert len(takes) > 0.8 * self.DURATION_S * self.CONSUMER_HZ
            seqs = [s for _, s in takes]
            # freshness: each take returns the newest fully published frame
            # (or one published mid-take), never an older one
            for floor_seq, seq in takes:
                assert seq >= floor_seq - 1
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            # boundedness: one slot per camera; everything not consumed was
            # overwritten in place, leaving at most one frame buffered
            left = 0 if slots[i].peek_empty() else 1
            leftover += left
            assert produced[i] == len(takes) + slots[i].drops + left
        assert leftover <= self.CAMERAS
        announce(
            6,
            f"{self.CAMERAS} slots at 10:1 for {self.DURATION_S:.0f} s: "
            "all takes fresh, buffered <= camera count",
        )


# --------------------------------------------------------------------------
# Criterion 7: adaptive beats fixed-time on the bundled skewed scenario.
# --------------------------------------------------------------------------


class TestCriterion7AdaptiveBeatsFixed:
    def test_bundled_scenario_paired_seeds(self, assets_dir):
        t0 = time.perf_counter()
        raw = json.loads((assets_dir / "scenario_asymmetric.json").read_text())
        cfg = IntersectionConfig.from_dict(
            json.loads((assets_dir / raw["intersection"]).read_text())
        )
        demand = ArrivalModel.from_dict(raw["demand"])
        options = SimOptions.from_dict(raw["options"])
        fixed_spec, adaptive_spec = raw["controllers"]
        controllers = {
            fixed_spec["name"]: FixedTimeController(fixed_spec["greens"], cfg),
            adaptive_spec["name"]: simulator.AdaptiveController(
                cfg, OptimizerParams.from_dict(adaptive_spec["optimizer"]),
                policy=adaptive_spec["policy"],
            ),
        }
        report = simulator.compare_controllers(
            cfg, demand, controllers, raw["horizon_s"], raw["seeds"], options
        )
        deltas = report["controllers"]["adaptive"]["vs_fixed_equal"]
        wins = deltas["seeds_not_worse_than_baseline"]
        improvement = -deltas["overall_avg_pct_change"]
        elapsed = time.perf_counter() - t0
        assert wins >= 9
        assert improvement >= 10.0
        assert elapsed < 120.0
        announce(
            7,
            f"adaptive wins {wins}/10 seeds, mean improvement "
            f"{improvement:.1f}% in {elapsed:.1f} s",
        )


# --------------------------------------------------------------------------
# Criterion 8: conservation identity and long-horizon stability.
# --------------------------------------------------------------------------


class TestCriterion8ConservationStability:
    def test_conservation_every_second(self):
        cfg = IntersectionConfig(num_links=3, min_green_s=5, max_green_s=60,
                                 inter_green_s=3)
        ctrl = FixedTimeController([20, 15, 25], cfg)
        demand = ArrivalModel((0.1, 0.05, 0.2), (0.02, 0.01, 0.04), rng_seed=3)
        opts = SimOptions(initial_motorized=(5, 0, 9),
                          initial_non_motorized=(1, 0, 2))
        metrics, trace = simulate(cfg, demand, ctrl, 1200, opts)
        prev = [6, 0, 11]
        discharged_total = 0
        for queues, arrivals, discharged in zip(trace.queues.tolist(),
                                                trace.arrivals.tolist(),
                                                trace.discharged.tolist()):
            for i in range(3):
                assert queues[i] == prev[i] + arrivals[i] - discharged[i]
                assert queues[i] >= 0
            discharged_total += sum(discharged)
            prev = queues
        assert metrics.throughput_total == discharged_total

    def test_undersaturated_link_bounded_over_10000s(self):
        # one loaded link, demand well under its green-share capacity
        cfg = IntersectionConfig(num_links=2, min_green_s=5, max_green_s=60,
                                 inter_green_s=3, sat_flow_motorized=1.0)
        ctrl = FixedTimeController([30, 5], cfg)
        demand = ArrivalModel((0.3, 0.0), (0.0, 0.0), rng_seed=11)
        metrics, trace = simulate(cfg, demand, ctrl, 10_000)
        totals = trace.queues.sum(axis=1)
        slope = np.polyfit(np.arange(len(totals)), totals, 1)[0]
        assert abs(slope) < 0.005  # no drift over the full horizon
        first, second = totals[:5000].mean(), totals[5000:].mean()
        assert second < 2.0 * max(first, 1.0)
        assert metrics.overall_max < 100
        announce(
            8,
            f"conservation exact; 10,000 s queue bounded "
            f"(max {metrics.overall_max}, drift {slope:+.5f}/s)",
        )


# --------------------------------------------------------------------------
# Criterion 9: emergency service begins within the active-phase remainder
# plus one clearance interval.
# --------------------------------------------------------------------------


class TestCriterion9EmergencyReordering:
    def test_100_randomized_events(self):
        rng = random.Random(2024)
        for trial in range(100):
            L = rng.randint(3, 5)
            cfg = IntersectionConfig(num_links=L, min_green_s=5,
                                     max_green_s=40,
                                     inter_green_s=rng.randint(1, 4))
            greens = [rng.randint(5, 40) for _ in range(L)]
            pad = rng.choice([0, 0, 2, 4])
            ctrl = FixedTimeController(greens, cfg, guidance_pad_s=pad)
            cycle = ctrl._plan.cycle_length_s
            event = EmergencyEvent(time_s=rng.randint(0, 2 * cycle),
                                   link=rng.randrange(L))
            opts = SimOptions(emergency_events=[event], guidance_pad_s=pad)
            horizon = event.time_s + 2 * cycle + 10
            _, trace = simulate(cfg, ArrivalModel((0.0,) * L, (0.0,) * L),
                                ctrl, horizon, opts)
            active = trace.active_link[event.time_s]
            if active == event.link:
                continue  # already being served
            if active == -1:
                # mid-clearance: the phase that just ended may be the
                # emergency link itself, which counts as served
                t_back = event.time_s
                while t_back > 0 and trace.active_link[t_back] == -1:
                    t_back -= 1
                if trace.active_link[t_back] == event.link:
                    continue
            # walk through the active-phase remainder and one clearance;
            # the next link shown must be the emergency link
            t = event.time_s
            while trace.active_link[t] in (active, -1):
                t += 1
                assert t < horizon, f"trial {trial}: never served"
            assert trace.active_link[t] == event.link, f"trial {trial}"
            bound = cycle  # remainder + clearance is always under one cycle
            assert t - event.time_s <= bound
        announce(9, "100 randomized events served within remainder + clearance")


# --------------------------------------------------------------------------
# Criterion 10: byte-identical artifacts across repeated seeded runs.
# --------------------------------------------------------------------------


def manifest_without_timestamps(path):
    raw = json.loads(path.read_text())
    raw.pop("started_at", None)
    raw.pop("finished_at", None)
    return raw


def assert_identical_runs(argv_for, artifacts, tmp_path):
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(argv_for(out)) == 0
        outs.append(out)
    a, b = outs
    for artifact in artifacts:
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), artifact
    assert manifest_without_timestamps(a / "manifest.json") == \
        manifest_without_timestamps(b / "manifest.json")


class TestCriterion10Determinism:
    def test_optimize_byte_identical(self, assets_dir, tmp_path):
        assert_identical_runs(
            lambda out: [
                "optimize",
                "--config", str(assets_dir / "palashi5.json"),
                "--queue", str(assets_dir / "queue_sample.json"),
                "--seed", "42", "--out", str(out),
            ],
            ["pareto_front.json", "selected_plan.json"],
            tmp_path / "optimize",
        )

    def test_simulate_byte_identical(self, assets_dir, tmp_path):
        assert_identical_runs(
            lambda out: [
                "simulate",
                "--scenario", str(assets_dir / "scenario_asymmetric.json"),
                "--seed", "3", "--out", str(out),
            ],
            ["metrics.json", "timeseries.csv"],
            tmp_path / "simulate",
        )

    def test_pipeline_byte_identical(self, assets_dir, tmp_path):
        assert_identical_runs(
            lambda out: [
                "pipeline",
                "--config", str(assets_dir / "pipeline_demo.json"),
                "--cycles", "3", "--seed", "5", "--timing", "sim",
                "--report", "--out", str(out),
            ],
            ["plans.ndjson", "latency_ledger.ndjson", "latency_report.json"],
            tmp_path / "pipeline",
        )
        announce(10, "optimize/simulate/pipeline artifacts byte-identical")
