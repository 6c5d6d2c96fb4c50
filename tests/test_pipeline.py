import dataclasses
import functools
import json
import random
import statistics
import sys
import threading
import time

import pytest

from greenlight import nsga2, objectives
from greenlight.cli import main
from greenlight.core import ConfigError, DetectionRecord, QueueState, SignalPlan
from greenlight.pipeline import (
    Aggregator,
    CameraStatus,
    CycleLatency,
    Frame,
    FrameSlot,
    PipelineConfig,
    PipelineResult,
    ReplaySource,
    SyntheticCamera,
    SyntheticDetector,
    orchestrator,
    run_extraction_worker,
    run_pipeline,
)
from greenlight.pipeline.sources import Clock, VirtualClock


def frame(seq, camera_id=0, motorized_in=1, non_motorized_in=0,
          extraction_ms=0.0):
    """Frame ``seq`` of a scene of the given inbound counts."""
    scene = DetectionRecord(camera_id=camera_id, frame_ts_ms=0,
                            motorized_in=motorized_in,
                            non_motorized_in=non_motorized_in)
    return Frame(camera_id=camera_id, seq=seq, capture_ts_ms=float(seq),
                 payload=scene, extraction_ms=extraction_ms)


class TestFrameSlot:
    def test_newest_wins_and_drop_reported(self):
        slot = FrameSlot()
        slot.put(frame(0))
        assert slot.drops == 0
        slot.put(frame(1))
        assert slot.drops == 1
        assert slot.take().seq == 1

    def test_take_empties_slot(self):
        slot = FrameSlot()
        slot.put(frame(0))
        assert slot.take().seq == 0
        assert slot.take(timeout=0.01) is None

    def test_rapid_puts_drop_all_but_newest(self):
        slot = FrameSlot()
        for i in range(1000):
            slot.put(frame(i))
        assert slot.take().seq == 999
        assert slot.drops == 999

    def test_close_unblocks_take(self):
        slot = FrameSlot()
        t = threading.Thread(target=slot.close)
        t.start()
        assert slot.take(timeout=2.0) is None
        t.join()


def handed_over(agg):
    # The stage samples that the next snapshot with a queue hands over.
    for cam in range(agg.num_cameras):
        agg.submit(DetectionRecord(camera_id=cam, frame_ts_ms=0, motorized_in=1))
    _, _, ext, inf = agg.collect(window_ms=0)
    return ext, inf


class TestExtractionWorker:
    def test_slow_consumer_sees_fresh_frames(self):
        source = SyntheticCamera(camera_id=0, fps=100, motorized_in=3,
                                 n_frames=100, clock=Clock())
        slot = FrameSlot()
        status = CameraStatus()
        t = threading.Thread(target=run_extraction_worker,
                             args=(source, slot, Aggregator(1), status))
        t.start()
        seen = []
        while t.is_alive() or not slot.peek_empty():
            f = slot.take(timeout=0.2)
            if f is not None:
                seen.append(f.seq)
            time.sleep(0.1)  # ~10 fps consumer against 100 fps producer
        t.join()
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        assert len(seen) < 100
        assert status.frames == 100

    def test_empty_source_exits_cleanly(self):
        slot = FrameSlot()
        agg = Aggregator(1)
        status = CameraStatus()
        run_extraction_worker(iter(()), slot, agg, status)
        assert status.alive is False
        assert status.error is None
        assert handed_over(agg) == ([], [])

    def test_source_failure_marks_camera_stale(self):
        def source():
            yield from SyntheticCamera(camera_id=0, fps=1000, motorized_in=1,
                                       n_frames=5, clock=VirtualClock())
            raise RuntimeError("camera 0 stream lost")

        slot = FrameSlot()
        agg = Aggregator(1)
        status = CameraStatus()
        run_extraction_worker(source(), slot, agg, status)
        assert status.alive is False
        assert "stream lost" in status.error
        ext, _ = handed_over(agg)
        assert len(ext) == 5


class RecordingAggregator(Aggregator):
    """Keeps every record submitted, not only the latest per camera."""

    def __init__(self, num_cameras):
        super().__init__(num_cameras)
        self.records = []

    def submit(self, record):
        self.records.append(record)
        super().submit(record)


def drive_inference(frames, detector):
    # One frame at a time through the inference step.
    agg = RecordingAggregator(1)
    status = CameraStatus()
    for f in frames:
        orchestrator.infer_one(f, detector, agg, status)
    records = list(agg.records)
    _, inf = handed_over(agg)
    return records, inf, status


@dataclasses.dataclass(eq=False)
class FailingDetector(SyntheticDetector):
    """Raises on every ``fail_every``-th detect, before it draws or paces."""

    fail_every: int = 2

    def __post_init__(self):
        super().__post_init__()
        self.calls = 0

    def detect(self, frame):
        self.calls += 1
        if self.calls % self.fail_every == 0:
            raise RuntimeError("detector failure (synthetic)")
        return super().detect(frame)


class TestInferenceWorker:
    def test_reports_characteristic_delay(self):
        detector = SyntheticDetector(delay_ms=1994.8, clock=VirtualClock(), seed=1)
        records, samples, _ = drive_inference([frame(i) for i in range(4)], detector)
        assert len(records) == 4
        assert all(s == pytest.approx(1994.8) for s in samples)

    def test_zero_delay_in_order(self):
        detector = SyntheticDetector(delay_ms=0.0, seed=1)
        records, samples, _ = drive_inference([frame(i) for i in range(10)], detector)
        assert [r.frame_ts_ms for r in records] == list(range(10))
        assert len(samples) == 10

    def test_detector_failures_counted_and_skipped(self):
        detector = FailingDetector(delay_ms=0.0, fail_every=2, seed=1)
        records, samples, status = drive_inference(
            [frame(i) for i in range(10)], detector)
        assert len(records) == 5
        assert status.detector_errors == 5
        assert len(samples) == 5


class TestSyntheticDetectorNoise:
    def test_miss_rate_reduces_counts(self):
        det = SyntheticDetector(miss_rate=0.5, seed=0)
        rec, _ = det.detect(frame(0, motorized_in=1000))
        assert 300 < rec.motorized_in < 700

    def test_noiseless_passthrough(self):
        det = SyntheticDetector(seed=0)
        rec, _ = det.detect(frame(0, motorized_in=17, non_motorized_in=4))
        assert rec.motorized_in == 17
        assert rec.non_motorized_in == 4

    def test_false_rate_at_its_ceiling_stays_poisson(self):
        # Above ~745 the inversion ran until its product underflowed and
        # every rate drew the same mean; 700 is the ceiling.
        det = SyntheticDetector(false_rate=700, seed=0)
        recs = [det.detect(frame(i))[0] for i in range(200)]
        mean_added = sum(r.motorized_in for r in recs) / len(recs) - 1
        assert mean_added == pytest.approx(700, abs=10)

    def test_false_counts_saturate_at_the_count_ceiling(self):
        det = SyntheticDetector(false_rate=5, seed=0)
        rec, _ = det.detect(frame(0, motorized_in=100_000,
                                  non_motorized_in=99_999))
        assert (rec.motorized_in, rec.non_motorized_in) == (100_000, 100_000)

    def test_false_rate_adds_poisson_counts(self):
        det = SyntheticDetector(false_rate=2.0, seed=0)
        recs = [det.detect(frame(i, motorized_in=5, non_motorized_in=1))[0]
                for i in range(2000)]
        assert min(r.motorized_in for r in recs) >= 5
        assert min(r.non_motorized_in for r in recs) >= 1
        mean_added = sum(r.motorized_in for r in recs) / len(recs) - 5
        assert mean_added == pytest.approx(2.0, abs=0.15)


class TestStageSettings:
    """A stage built in code is checked by the table of its config keys."""

    @pytest.mark.parametrize("build, message", [
        (lambda: SyntheticCamera(0, fps=0), "fps must be >= 0.01, got 0"),
        (lambda: SyntheticDetector(miss_rate=1.5),
         "miss_rate must be in [0, 1], got 1.5"),
    ])
    def test_direct_construction_raises_config_error(self, build, message):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message

    def test_replay_skips_blank_lines(self, tmp_path):
        records = [DetectionRecord(camera_id=c, frame_ts_ms=t, motorized_in=m)
                   for c, t, m in ((0, 0, 3), (1, 5, 9), (0, 10, 4))]
        log = tmp_path / "replay.ndjson"
        log.write_text("\n" + "\n  \n".join(
            json.dumps(r.to_dict()) for r in records) + "\n\n")
        frames = list(ReplaySource(0, str(log)))
        assert [(f.seq, f.payload) for f in frames] == [
            (0, records[0]), (1, records[2])]


@pytest.fixture
def sleeps(monkeypatch):
    """Every time.sleep of the run, in seconds, in place of sleeping."""
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    return slept


class TestClockPacing:
    """Every stage paces on the run's clock: the wall clock sleeps
    ``time_scale`` times each emulated delay, the virtual clock never."""

    def test_camera_paces_period_plus_extraction(self, sleeps):
        camera = SyntheticCamera(0, fps=8, extract_delay_ms=12, jitter_ms=4,
                                 n_frames=4, clock=Clock(0.5))
        frames = list(camera)
        assert len(frames) == 4 and len({f.extraction_ms for f in frames}) == 4
        assert sleeps == pytest.approx(
            [(125 + f.extraction_ms) * 0.5 / 1000 for f in frames])

    def test_replay_paces_its_frame_period(self, sleeps, assets_dir):
        replay = ReplaySource(2, str(assets_dir / "detections_sample.ndjson"),
                              fps=20, clock=Clock(0.5))
        frames = list(replay)
        assert len(frames) == 12
        assert sleeps == pytest.approx([50 * 0.5 / 1000] * 12)

    def test_detector_paces_its_delay(self, sleeps):
        detector = SyntheticDetector(delay_ms=100, jitter_ms=10, seed=3,
                                     clock=Clock(0.5))
        delays = [detector.detect(frame(i))[1] for i in range(5)]
        assert len(set(delays)) == 5
        assert sleeps == pytest.approx([d * 0.5 / 1000 for d in delays])

    def test_zero_delay_sleeps_nothing(self, sleeps):
        SyntheticDetector(clock=Clock(0.5)).detect(frame(0))
        assert sleeps == []

    def test_sim_run_sleeps_nothing(self, sleeps, assets_dir):
        cfg = PipelineConfig.load(assets_dir / "pipeline_demo.json")
        cfg.timing = "sim"
        result = run_pipeline(cfg, 3)
        assert len(result.cycles) == 3
        assert result.latency_report()["t_latency_ms"] > 2000
        assert sleeps == []

    def test_stages_pace_on_the_run_clock(self, sleeps, assets_dir):
        cfg = pipeline_config(cameras=[
            sim_cameras()[0],
            {"type": "replay", "fps": 25,
             "path": str(assets_dir / "detections_sample.ndjson")}])
        for i, spec in enumerate(cfg.cameras):
            frames, detector = orchestrator._build_stage(spec, i, cfg, Clock(0.25))
            detector.detect(next(frames))
        # 50 fps plus 2 ms extraction, then 25 fps; 30 ms of detection each.
        assert sleeps == pytest.approx([ms * 0.25 / 1000 for ms in (22, 30, 40, 30)])


class TestAggregator:
    def record(self, cam, m, nm=0, ts=0):
        return DetectionRecord(camera_id=cam, frame_ts_ms=ts, motorized_in=m,
                               non_motorized_in=nm)

    def test_one_record_per_camera(self):
        agg = Aggregator(3)
        for cam, m in enumerate([5, 7, 9]):
            agg.submit(self.record(cam, m, nm=cam))
        queue, stale, *_ = agg.collect(window_ms=50)
        assert queue.motorized == (5, 7, 9)
        assert queue.non_motorized == (0, 1, 2)
        assert stale == []

    def test_latest_record_wins(self):
        agg = Aggregator(2)
        agg.submit(self.record(0, 5))
        agg.submit(self.record(0, 9, ts=1))
        agg.submit(self.record(1, 1))
        queue, *_ = agg.collect(window_ms=50)
        assert queue.motorized[0] == 9

    def test_stale_camera_reuses_last_counts(self):
        agg = Aggregator(2, max_stale_windows=2)
        agg.submit(self.record(0, 3))
        agg.submit(self.record(1, 7))
        agg.collect(window_ms=10)
        agg.submit(self.record(0, 4))  # camera 1 goes silent
        queue, stale, *_ = agg.collect(window_ms=10)
        assert queue.motorized == (4, 7)
        assert stale == [1]

    def test_stale_beyond_budget_zeroed(self):
        agg = Aggregator(2, max_stale_windows=1)
        agg.submit(self.record(0, 3))
        agg.submit(self.record(1, 7))
        agg.collect(window_ms=10)
        for _ in range(2):
            agg.submit(self.record(0, 4))
            queue, stale, *_ = agg.collect(window_ms=10)
        assert queue.motorized == (4, 0)
        assert stale == [1]

    def test_all_stale_returns_none(self):
        agg = Aggregator(2)
        assert agg.collect(window_ms=10) is None

    def test_virtual_wait_runs_to_the_deadline(self):
        clock = VirtualClock()
        agg = Aggregator(2, clock=clock)
        agg.submit(self.record(0, 3))
        agg.submit(self.record(1, 7))
        queue, stale, *_ = agg.collect(window_ms=400)
        assert (queue.timestamp_ms, stale) == (0, [])
        clock.advance(250.5)
        agg.submit(self.record(0, 4))
        queue, stale, *_ = agg.collect(window_ms=400)
        assert (queue.timestamp_ms, stale) == (650, [1])

    def test_fresh_without_time_passing(self):
        # Freshness is delivery since the last collect, not a later time.
        agg = Aggregator(2, clock=VirtualClock())
        for _ in range(3):
            agg.submit(self.record(0, 3))
            agg.submit(self.record(1, 7))
            queue, stale, *_ = agg.collect(window_ms=400)
            assert (queue.timestamp_ms, stale) == (0, [])

    def test_skipped_collect_releases_and_keeps_samples(self):
        agg = Aggregator(1, clock=VirtualClock())
        agg.add_extraction(2.0)
        agg.add_inference(30.0)
        assert agg.collect(window_ms=400) is None
        assert agg.wait_release(1) == (2, 400.0)
        agg.add_extraction(3.0)
        agg.submit(self.record(0, 5))
        queue, stale, ext, inf = agg.collect(window_ms=400)
        assert (queue.motorized, stale) == ((5,), [])
        assert (ext, inf) == ([2.0, 3.0], [30.0])
        assert agg.wait_release(2) == (3, 400.0)

    def test_sample_after_collect_lands_in_next_snapshot(self):
        agg = Aggregator(1, clock=VirtualClock())
        agg.add_inference(30.0)
        agg.submit(self.record(0, 5))
        assert agg.collect(window_ms=400)[2:] == ([], [30.0])
        # A detection that ends while the optimizer runs.
        agg.add_inference(31.0)
        agg.submit(self.record(0, 6))
        queue, _, ext, inf = agg.collect(window_ms=400)
        assert (queue.motorized, ext, inf) == ((6,), [], [31.0])

    def test_creation_releases_and_close_ends_waits(self):
        clock = VirtualClock()
        clock.advance(7.0)
        agg = Aggregator(2, clock=clock)
        assert agg.wait_release(0) == (1, 7.0)
        waited = []
        waiter = threading.Thread(
            target=lambda: waited.append(agg.wait_release(1)))
        waiter.start()
        time.sleep(0.05)  # let the waiter block
        agg.close()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert waited == [None]
        assert agg.wait_release(0) is None


class TestLatencyLedger:
    def test_cycle_arithmetic(self):
        entry = CycleLatency(cycle_id=0, extraction_samples_ms=[10, 20, 30],
                             inference_samples_ms=[100, 200],
                             t_optimization_ms=500)
        assert entry.t_extraction_ms == 20
        assert entry.t_inference_ms == 150
        assert entry.t_latency_ms == 670
        assert entry.optimization_ms == 500
        # The entry's fields are the ledger line's keys.
        assert entry.to_dict() == {
            "cycle_id": 0, "extraction_samples_ms": [10, 20, 30],
            "inference_samples_ms": [100, 200], "t_extraction_ms": 20,
            "t_inference_ms": 150, "t_optimization_ms": 500,
            "t_latency_ms": 670}
        # The mean of no samples is 0.
        assert CycleLatency(1, [], [], 5.0).to_dict() == {
            "cycle_id": 1, "extraction_samples_ms": [],
            "inference_samples_ms": [], "t_extraction_ms": 0.0,
            "t_inference_ms": 0.0, "t_optimization_ms": 5.0,
            "t_latency_ms": 5.0}

    def test_run_mean(self):
        queue = QueueState((3, 1), (0, 2))
        plan = SignalPlan(((0, 10), (1, 10)), inter_green_s=2)
        result = PipelineResult([
            orchestrator.CycleResult(i, queue, [], plan, {"f1": 1, "f2": 2},
                                     CycleLatency(i, [], [], t))
            for i, t in enumerate([600.0, 800.0])], [])
        assert result.latency_report() == {
            "num_cycles": 2, "t_latency_ms": 700.0,
            "per_cycle_t_latency_ms": [600.0, 800.0],
            "mean_t_extraction_ms": 0.0, "mean_t_inference_ms": 0.0,
            "mean_t_optimization_ms": 700.0}
        assert PipelineResult([], []).latency_report()["t_latency_ms"] == 0.0
        # A cycle's record less its latency is its plans line, with the
        # plan's derived cycle length; its latency is its ledger line.
        line = result.cycles[1].to_dict()
        assert line.pop("latency") == result.cycles[1].latency.to_dict()
        assert line == {"cycle_id": 1, "queue": queue.to_dict(),
                        "stale_links": [], "plan": plan.to_dict(),
                        "objectives": {"f1": 1, "f2": 2}}


def pipeline_config(**overrides):
    base = {
        "intersection": {"num_links": 2, "min_green_s": 5, "max_green_s": 30,
                         "inter_green_s": 2},
        "cameras": [
            {"fps": 50, "motorized_in": 20, "non_motorized_in": 5,
             "extract_delay_ms": 2},
            {"fps": 50, "motorized_in": 4, "non_motorized_in": 1,
             "extract_delay_ms": 2},
        ],
        "detector": {"delay_ms": 30},
        "window_ms": 400,
        "optimizer": {"population_size": 12, "generations": 8, "rng_seed": 0},
        "seed": 0,
    }
    base.update(overrides)
    return PipelineConfig.from_dict(base)


class TestRunPipeline:
    def test_real_mode_emits_plans_and_ledger(self):
        cfg = pipeline_config()
        result = run_pipeline(cfg, 3)
        assert len(result.cycles) == 3
        assert [c.cycle_id for c in result.cycles] == [0, 1, 2]
        for c in result.cycles:
            assert c.plan.num_links == 2
            assert c.latency.inference_samples_ms
        # heavier link gets at least as much green
        for c in result.cycles:
            greens = dict(c.plan.phases)
            assert greens[0] >= greens[1]

    def test_cycle_holds_the_samples_of_its_snapshot(self, monkeypatch):
        # Both cameras deliver during a slow first optimization, so the
        # second collect returns at once and a quick optimization follows;
        # the second cycle must still hold the samples of its records.
        plan = nsga2.Planner.__call__
        calls = []

        def uneven(planner, queue):
            calls.append(None)
            if len(calls) == 1:
                time.sleep(0.2)
            return plan(planner, queue)

        monkeypatch.setattr(nsga2.Planner, "__call__", uneven)
        result = run_pipeline(pipeline_config(), 3)
        assert len(calls) == 3
        for c in result.cycles:
            assert c.latency.inference_samples_ms, c.cycle_id

    def test_both_timings_reuse_fronts(self, evolutions):
        # Constant camera counts give every cycle one objective map, so
        # either timing evolves one front and reuses it from the memo.
        runs = {}
        for timing in ("real", "sim"):
            evolutions[0] = 0
            result = run_pipeline(pipeline_config(timing=timing), 4)
            assert len({c.queue.motorized for c in result.cycles}) == 1
            runs[timing] = (len(result.cycles), evolutions[0])
        assert runs == {"real": (4, 1), "sim": (4, 1)}

    def test_varying_counts_evolve_each_new_map_once(self, evolutions):
        # Missed detections vary small counts, so some cycles repeat an
        # objective map and some do not: a real-timing run evolves one
        # front per distinct map, and every plan is the one a memo-less
        # run and selection give on its cycle's queue.
        cameras = [{"fps": 50, "motorized_in": m, "non_motorized_in": n,
                    "extract_delay_ms": 2} for m, n in ((4, 2), (2, 1))]
        cfg = pipeline_config(cameras=cameras,
                              detector={"delay_ms": 30, "miss_rate": 0.3},
                              policy="weighted", weights=[0.9, 0.1],
                              guidance_pad_s=1)
        result = run_pipeline(cfg, 10)
        evolved = evolutions[0]
        queues = [c.queue for c in result.cycles]
        keys = {objectives.genome_evaluator(
            q, cfg.intersection, cfg.guidance_pad_s).key for q in queues}
        assert len(result.cycles) == 10
        assert 1 < len(keys) < len(result.cycles)
        assert evolved == len(keys)
        for c in result.cycles:
            front = nsga2.run(c.queue, cfg.intersection, cfg.optimizer,
                              cfg.guidance_pad_s, memo=None)
            assert c.plan == nsga2.select_operating_point(
                front, cfg.policy, cfg.intersection, cfg.guidance_pad_s,
                cfg.weights), c.cycle_id

    def test_sim_mode_deterministic(self):
        cfg1 = pipeline_config(timing="sim")
        cfg2 = pipeline_config(timing="sim")
        r1 = run_pipeline(cfg1, 4)
        r2 = run_pipeline(cfg2, 4)
        assert [c.to_dict() for c in r1.cycles] == [
            c.to_dict() for c in r2.cycles]

    def test_ledger_identities_recomputable(self):
        cfg = pipeline_config(timing="sim")
        result = run_pipeline(cfg, 5)
        for entry in (c.latency for c in result.cycles):
            t_ext = sum(entry.extraction_samples_ms) / len(
                entry.extraction_samples_ms)
            t_inf = sum(entry.inference_samples_ms) / len(
                entry.inference_samples_ms)
            assert entry.t_extraction_ms == pytest.approx(t_ext, rel=1e-12)
            assert entry.t_inference_ms == pytest.approx(t_inf, rel=1e-12)
            assert entry.t_latency_ms == pytest.approx(
                t_ext + t_inf + entry.t_optimization_ms, rel=1e-12)

    def test_dead_camera_marked_and_pipeline_survives(self):
        cfg = pipeline_config()
        cfg.cameras[1]["n_frames"] = 1
        result = run_pipeline(cfg, 3)
        assert len(result.cycles) == 3
        assert any(1 in c.stale_links for c in result.cycles[1:])

    def test_replay_cameras(self, assets_dir, tmp_path):
        log = assets_dir / "detections_sample.ndjson"
        cfg = PipelineConfig.from_dict({
            "intersection": str(assets_dir / "palashi5.json"),
            "cameras": [{"type": "replay", "path": str(log), "fps": 200}
                        for _ in range(5)],
            "window_ms": 400,
            "optimizer": {"population_size": 12, "generations": 5},
        })
        result = run_pipeline(cfg, 2)
        assert len(result.cycles) == 2
        assert all(c.queue.total() > 0 for c in result.cycles)


class TestRealReleaseRule:
    """Real timing detects one frame per live camera per snapshot: taking a
    snapshot releases each camera's next detection, on a frame captured
    after the release."""

    def test_one_detection_per_camera_per_snapshot(self, monkeypatch):
        # On the pipeline's monotonic clock: ("collect", return ms),
        # ("detect", camera), ("submit", record), in the order they happen.
        events = []
        collect, submit = Aggregator.collect, Aggregator.submit
        detect = SyntheticDetector.detect

        def watched_collect(self, *args, **kwargs):
            res = collect(self, *args, **kwargs)
            events.append(("collect", time.monotonic() * 1e3))
            return res

        def watched_submit(self, record):
            events.append(("submit", record))
            return submit(self, record)

        def watched_detect(self, frame):
            events.append(("detect", frame.camera_id))
            return detect(self, frame)

        monkeypatch.setattr(Aggregator, "collect", watched_collect)
        monkeypatch.setattr(Aggregator, "submit", watched_submit)
        monkeypatch.setattr(SyntheticDetector, "detect", watched_detect)
        cameras = [{"fps": 10, "motorized_in": m, "extract_delay_ms": 12,
                    "jitter_ms": 4} for m in (9, 3, 6)]
        cfg = pipeline_config(
            intersection={"num_links": 3, "min_green_s": 5, "max_green_s": 30},
            cameras=cameras, detector={"delay_ms": 1000, "jitter_ms": 400},
            window_ms=2000, time_scale=0.05)
        result = run_pipeline(cfg, 6)
        assert result.skipped_cycles == 0
        assert all(not c.stale_links for c in result.cycles)

        # Split the events at each collect: part k+1 holds the detections
        # and records between snapshots k and k+1, and the last part the
        # detections in flight at stop.
        parts, returned = [[]], []
        for event in events:
            if event[0] == "collect":
                returned.append(event[1])
                parts.append([])
            else:
                parts[-1].append(event)
        assert len(returned) == 6
        records = [[e[1] for e in part if e[0] == "submit"] for part in parts]
        for k in range(1, len(returned)):
            # Captured after snapshot k-1's collect returned; a record keeps
            # the capture time in whole ms.
            assert all(r.frame_ts_ms >= int(returned[k - 1])
                       for r in records[k]), k
        for k, part in enumerate(parts):
            detected = [e[1] for e in part if e[0] == "detect"]
            assert sorted(detected) == sorted(set(detected)), k
            if k < len(returned):  # fed snapshot k
                assert sorted(r.camera_id for r in records[k]) == [0, 1, 2], k
        for c in result.cycles:
            assert len(c.latency.inference_samples_ms) == 3 - len(c.stale_links)

    def test_release_serves_the_latest_snapshot_once_under_contention(self):
        # More waiters than cores and a short switch interval: a lost
        # wake-up leaves a waiter short of the last snapshot, a repeated
        # one serves a snapshot twice.
        agg = Aggregator(1)
        served = [[] for _ in range(8)]

        def waiter(i):
            seen = 0
            while (snapshot := agg.wait_release(seen)) is not None:
                seen = snapshot[0]
                served[i].append(snapshot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=waiter, args=(i,))
                       for i in range(len(served))]
            for t in threads:
                t.start()
            # Bursts of collects, each followed by a wait until every waiter
            # has served the latest release, so waiters are asleep at one.
            deadline = time.monotonic() + 10.0
            released = 1  # creation releases
            for burst in range(300):
                for _ in range(1 + burst % 7):
                    assert agg.collect(window_ms=0) is None
                    released += 1
                while (any(not s or s[-1][0] < released for s in served)
                       and time.monotonic() < deadline):
                    time.sleep(0.0002)
            agg.close()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for s in served:
            counts, stamps = [c for c, _ in s], [t for _, t in s]
            assert counts[-1] == released
            assert counts == sorted(set(counts)) and stamps == sorted(stamps)


def sim_cameras(**second):
    return [
        {"fps": 50, "motorized_in": 20, "non_motorized_in": 5,
         "extract_delay_ms": 2},
        dict({"fps": 50, "motorized_in": 4, "non_motorized_in": 1,
              "extract_delay_ms": 2}, **second),
    ]


class TestSimFailurePolicies:
    """Stale-camera and failure policies in sim timing, where the loop moves
    one frame per live camera through the stage steps before each collect."""

    def test_camera_death_via_n_frames(self):
        cfg = pipeline_config(timing="sim", cameras=sim_cameras(n_frames=2),
                              max_stale_windows=2)
        result = run_pipeline(cfg, 6)
        assert [c.stale_links for c in result.cycles] == [
            [], [], [1], [1], [1], [1]]
        # Last counts reused for max_stale_windows windows, then zero.
        assert [c.queue.motorized for c in result.cycles] == (
            [(20, 4)] * 4 + [(20, 0)] * 2)
        assert [c.queue.non_motorized for c in result.cycles] == (
            [(5, 1)] * 4 + [(5, 0)] * 2)
        assert [len(c.latency.extraction_samples_ms) for c in result.cycles] == [
            2, 2, 1, 1, 1, 1]
        # Virtual time advances by each cycle's ledger latency, and by
        # window_ms while a collect waits on a stale camera.
        expected, t = [], 0.0
        for c in result.cycles:
            if c.stale_links:
                t += cfg.window_ms
            expected.append(int(t))
            t += c.latency.t_latency_ms
        assert [c.queue.timestamp_ms for c in result.cycles] == expected
        assert expected[2] - expected[1] > cfg.window_ms
        live, dead = result.camera_status
        assert (live.alive, live.frames, live.error) == (True, 6, None)
        assert (dead.alive, dead.frames, dead.error) == (False, 2, None)

    def test_detector_failure_every_n_frames(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "SyntheticDetector",
                            functools.partial(FailingDetector, fail_every=3))
        result = run_pipeline(pipeline_config(timing="sim"), 7)
        # Each detector fails on its 3rd and 6th frame, so cycles 2 and 5
        # get no fresh record and reuse the last counts.
        assert [c.stale_links for c in result.cycles] == [
            [], [], [0, 1], [], [], [0, 1], []]
        assert {c.queue.motorized for c in result.cycles} == {(20, 4)}
        assert [len(c.latency.inference_samples_ms) for c in result.cycles] == [
            2, 2, 0, 2, 2, 0, 2]
        assert [(s.alive, s.frames, s.detector_errors)
                for s in result.camera_status] == [(True, 7, 2)] * 2

    def test_all_cameras_dead_exits_2(self, tmp_path, capsys):
        raw = {
            "intersection": {"num_links": 2, "min_green_s": 5,
                             "max_green_s": 30, "inter_green_s": 2},
            "cameras": [dict(cam, n_frames=1) for cam in sim_cameras()],
            "optimizer": {"population_size": 12, "generations": 8},
            "timing": "sim",
        }
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(config), "--cycles", "10",
                     "--out", str(out)]) == 2
        assert "no camera delivered any record" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_cameras_byte_identical(self, assets_dir, tmp_path):
        # 12 logged records per camera: from cycle 12 on, every camera is stale.
        raw = {
            "intersection": str(assets_dir / "palashi5.json"),
            "cameras": [{"type": "replay",
                         "path": str(assets_dir / "detections_sample.ndjson")}
                        for _ in range(5)],
            "optimizer": {"population_size": 12, "generations": 5},
            "timing": "sim",
        }
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps(raw))
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["pipeline", "--config", str(config), "--cycles", "14",
                         "--out", str(out)]) == 0
            runs.append([(out / f).read_bytes()
                         for f in ("plans.ndjson", "latency_ledger.ndjson")])
        assert runs[0] == runs[1]
        plans = [json.loads(line) for line in runs[0][0].decode().splitlines()]
        assert [p["stale_links"] for p in plans] == [[]] * 12 + [[0, 1, 2, 3, 4]] * 2
        assert plans[0]["queue"]["motorized"] == [41, 8, 26, 6, 19]
        assert len({tuple(p["queue"]["motorized"]) for p in plans}) > 1

    def test_camera_status_counts_frames(self):
        result = run_pipeline(pipeline_config(timing="sim"), 4)
        assert [(s.alive, s.frames, s.detector_errors, s.error)
                for s in result.camera_status] == [(True, 4, 0, None)] * 2


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_camera_and_detector_jitter_streams_are_independent(assets_dir, seed):
    # Sim timing moves one frame per camera per cycle, so sample i of each
    # ledger entry is camera i's extraction and detector i's inference.
    cfg = PipelineConfig.load(assets_dir / "pipeline_demo.json")
    cfg.seed = seed
    cycles = run_pipeline(cfg, 50).cycles
    extraction = zip(*(c.latency.extraction_samples_ms for c in cycles))
    inference = list(zip(*(c.latency.inference_samples_ms for c in cycles)))
    assert all(abs(statistics.correlation(e, i)) < 0.9
               for e in extraction for i in inference)


class TestReplayDetection:
    """A replay camera's logged counts go through the config's one
    detector entry, like a synthetic camera's frames."""

    @staticmethod
    def replay_config(assets_dir, **detector):
        return PipelineConfig.from_dict({
            "intersection": str(assets_dir / "palashi5.json"),
            "cameras": [{"type": "replay",
                         "path": str(assets_dir / "detections_sample.ndjson")}
                        for _ in range(5)],
            "detector": detector,
            "optimizer": {"population_size": 12, "generations": 5},
            "timing": "sim",
        })

    def test_miss_rate_thins_logged_counts(self, assets_dir):
        queues = {}
        for rate in (0, 0.5):
            result = run_pipeline(self.replay_config(assets_dir, miss_rate=rate), 4)
            queues[rate] = [c.queue.motorized for c in result.cycles]
        assert queues[0][0] == (41, 8, 26, 6, 19)
        assert all(sum(thinned) < sum(logged)
                   for thinned, logged in zip(queues[0.5], queues[0]))

    def test_ledger_holds_delay_and_jitter_draws(self, assets_dir):
        result = run_pipeline(
            self.replay_config(assets_dir, delay_ms=100, jitter_ms=10), 3)
        # Camera i's detector draws from seed (seed << 8) ^ (i + 1), seed 0.
        rngs = [random.Random(i + 1) for i in range(5)]
        assert [c.latency.inference_samples_ms for c in result.cycles] == [
            [100 + rng.uniform(-10, 10) for rng in rngs] for _ in range(3)]


@pytest.mark.parametrize("count, message", [
    # A fractional count is a source failure, not a count of 2.
    (2.7, "motorized_in must be an integer, got 2.7"),
    # Detection thins a count one vehicle at a time: 10**12 would hang it.
    (10**12, "motorized_in must be in [0, 100000], got 1000000000000"),
])
def test_bad_replay_record_kills_its_camera(tmp_path, count, message):
    log = tmp_path / "replay.ndjson"
    log.write_text("".join(json.dumps(r) + "\n" for r in (
        {"camera_id": 1, "frame_ts_ms": 0, "motorized_in": 3},
        {"camera_id": 1, "frame_ts_ms": 100, "motorized_in": count},
    )))
    cfg = pipeline_config(timing="sim", cameras=[
        sim_cameras()[0], {"type": "replay", "path": str(log)}])
    result = run_pipeline(cfg, 4)
    replay = result.camera_status[1]
    assert not replay.alive
    assert message in replay.error
    assert [c.stale_links for c in result.cycles] == [[], [1], [1], [1]]
    # Last counts reused for max_stale_windows windows, then zero.
    assert [c.queue.motorized[1] for c in result.cycles] == [3, 3, 3, 0]
