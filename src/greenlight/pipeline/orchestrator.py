"""Pipeline orchestration: workers, windowed aggregation, cycle loop.

One extraction worker per camera feeds a latest-only slot; one inference
worker per slot turns frames into DetectionRecords; the orchestrator
aggregates the per-camera records into a QueueState once per window,
invokes the optimizer, and appends a latency-ledger entry per cycle.

``timing="real"`` runs the threaded pipeline against the wall clock.
``timing="sim"`` runs the same dataflow single-threaded on a virtual
clock, which makes every output (including the ledger) deterministic.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from .. import nsga2
from ..core import (
    ConfigError,
    DetectionRecord,
    IntersectionConfig,
    QueueState,
    SignalPlan,
    check_fields,
    load_intersection_config,
)
from .buffers import Frame, FrameSlot
from .detectors import DetectorAdapter, ReplayDetector, SyntheticDetector
from .latency import CycleLatency, LatencyBreakdown, LatencyRecorder
from .sources import ReplaySource, SyntheticCamera, now_ms

log = logging.getLogger(__name__)


@dataclass
class CameraStatus:
    alive: bool = True
    error: Optional[str] = None
    frames: int = 0
    detector_errors: int = 0


def run_extraction_worker(
    source: Iterable[Frame],
    slot: FrameSlot,
    recorder: LatencyRecorder,
    stop: threading.Event,
    status: CameraStatus,
) -> None:
    """Feed every frame of ``source`` into the slot, newest-wins."""
    try:
        for frame in source:
            if stop.is_set():
                break
            recorder.add_extraction(frame.extraction_ms)
            status.frames += 1
            slot.put(frame)
    except Exception as exc:  # camera marked stale, pipeline survives
        status.error = str(exc)
        log.warning("extraction worker failed: %s", exc)
    finally:
        status.alive = False


def run_inference_worker(
    slot: FrameSlot,
    detector: DetectorAdapter,
    sink: Callable[[DetectionRecord], None],
    recorder: LatencyRecorder,
    stop: threading.Event,
    status: CameraStatus,
) -> None:
    """Detect on each taken frame; exactly one record per frame."""
    while not stop.is_set():
        frame = slot.take(timeout=0.05)
        if frame is None:
            continue
        try:
            record, inference_ms = detector.detect(frame)
        except Exception as exc:
            status.detector_errors += 1
            log.warning("detector failed on frame %s: %s", frame.seq, exc)
            continue
        recorder.add_inference(inference_ms)
        sink(record)


class Aggregator:
    """Collects the latest DetectionRecord per camera into a QueueState.

    A window completes when every camera has delivered a record newer than
    the window start; on timeout, cameras missing for at most
    ``max_stale_windows`` consecutive windows reuse their last counts,
    older ones fall back to zero. Either way the link is flagged stale.
    """

    def __init__(self, num_cameras: int, max_stale_windows: int = 2):
        self.num_cameras = num_cameras
        self.max_stale_windows = max_stale_windows
        self._cond = threading.Condition()
        self._latest: list[Optional[DetectionRecord]] = [None] * num_cameras
        self._recv_ms: list[float] = [float("-inf")] * num_cameras
        self._stale_streak = [0] * num_cameras
        self._last_collect_ms = float("-inf")

    def submit(self, record: DetectionRecord) -> None:
        if not (0 <= record.camera_id < self.num_cameras):
            raise ConfigError(f"camera id {record.camera_id} out of range")
        with self._cond:
            self._latest[record.camera_id] = record
            self._recv_ms[record.camera_id] = now_ms()
            self._cond.notify_all()

    def collect(
        self, window_ms: float, timeout_ms: Optional[float] = None
    ) -> Optional[tuple[QueueState, list[int]]]:
        """Wait for one window; returns (queue, stale_links) or None if every
        camera is stale beyond the reuse budget.

        A camera is fresh when it has delivered a record since the previous
        window completed; missing cameras are waited on for up to
        ``window_ms`` (or ``timeout_ms``) before the stale policy applies.
        """
        start = now_ms()
        mark = self._last_collect_ms
        deadline = start + (timeout_ms if timeout_ms is not None else window_ms)
        with self._cond:
            while True:
                fresh = [self._recv_ms[i] > mark for i in range(self.num_cameras)]
                if all(fresh):
                    break
                remaining = (deadline - now_ms()) / 1000.0
                if remaining <= 0:
                    break
                self._cond.wait(remaining)

            motorized, non_motorized, stale_links = [], [], []
            usable = 0
            for i in range(self.num_cameras):
                rec = self._latest[i]
                if self._recv_ms[i] > mark:
                    self._stale_streak[i] = 0
                    usable += 1
                else:
                    self._stale_streak[i] += 1
                    stale_links.append(i)
                    if rec is None or self._stale_streak[i] > self.max_stale_windows:
                        rec = None
                    else:
                        usable += 1
                if rec is None:
                    motorized.append(0)
                    non_motorized.append(0)
                else:
                    motorized.append(rec.motorized_in)
                    non_motorized.append(rec.non_motorized_in)
            self._last_collect_ms = now_ms()
            if usable == 0:
                return None
            queue = QueueState(
                motorized=tuple(motorized),
                non_motorized=tuple(non_motorized),
                timestamp_ms=int(now_ms()),
            )
            return queue, stale_links


@dataclass
class PipelineConfig:
    intersection: IntersectionConfig
    cameras: list[dict]
    detector: dict = field(default_factory=dict)
    window_ms: float = 500.0
    max_stale_windows: int = 2
    optimizer: nsga2.OptimizerParams = field(default_factory=nsga2.OptimizerParams)
    policy: str = "knee"
    guidance_pad_s: int = 0
    timing: str = "real"
    time_scale: float = 1.0
    nominal_optimization_ms: float = 250.0
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict, base_dir: Optional[Path] = None) -> "PipelineConfig":
        check_fields(d, cls, "pipeline")
        inter = d.get("intersection")
        if isinstance(inter, str):
            path = Path(inter)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            cfg = load_intersection_config(path)
        elif isinstance(inter, dict):
            cfg = IntersectionConfig.from_dict(inter)
        else:
            raise ConfigError("pipeline config needs an 'intersection' entry")
        cameras = d.get("cameras")
        if not cameras:
            raise ConfigError("pipeline config needs a non-empty 'cameras' list")
        if len(cameras) != cfg.num_links:
            raise ConfigError(
                f"{len(cameras)} cameras configured for {cfg.num_links} links"
            )
        return cls(
            intersection=cfg,
            cameras=list(cameras),
            detector=dict(d.get("detector", {})),
            window_ms=float(d.get("window_ms", 500.0)),
            max_stale_windows=int(d.get("max_stale_windows", 2)),
            optimizer=nsga2.OptimizerParams.from_dict(d.get("optimizer", {})),
            policy=d.get("policy", "knee"),
            guidance_pad_s=int(d.get("guidance_pad_s", 0)),
            timing=d.get("timing", "real"),
            time_scale=float(d.get("time_scale", 1.0)),
            nominal_optimization_ms=float(d.get("nominal_optimization_ms", 250.0)),
            seed=int(d.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
        return cls.from_dict(raw, base_dir=path.parent)


@dataclass
class CycleResult:
    cycle_id: int
    queue: QueueState
    stale_links: list[int]
    plan: SignalPlan
    objectives: dict
    latency: CycleLatency


@dataclass
class PipelineResult:
    cycles: list[CycleResult]
    breakdown: LatencyBreakdown
    camera_status: list[CameraStatus]
    skipped_cycles: int = 0

    @property
    def plans(self) -> list[SignalPlan]:
        return [c.plan for c in self.cycles]


class AllCamerasStale(RuntimeError):
    """No camera produced a usable record within the stale budget."""


def _build_stage(
    spec: dict, camera_id: int, cfg: PipelineConfig
) -> tuple[Iterable[Frame], DetectorAdapter]:
    """Build the (source, detector) pair for one camera slot."""
    if spec.get("type") == "replay":
        source = ReplaySource(
            spec["path"],
            camera_id=camera_id,
            time_scale=cfg.time_scale if cfg.timing == "real" else 0.0,
            fps=float(spec.get("fps", 10.0)),
        )
        return source, ReplayDetector(float(cfg.detector.get("delay_ms", 0.0)))
    return _build_camera(spec, camera_id, cfg), _build_detector(cfg, camera_id)


def _build_camera(spec: dict, camera_id: int, cfg: PipelineConfig) -> SyntheticCamera:
    return SyntheticCamera(
        camera_id=camera_id,
        fps=float(spec.get("fps", 10.0)),
        motorized_in=int(spec.get("motorized_in", 0)),
        non_motorized_in=int(spec.get("non_motorized_in", 0)),
        motorized_out=int(spec.get("motorized_out", 0)),
        non_motorized_out=int(spec.get("non_motorized_out", 0)),
        extract_delay_ms=float(spec.get("extract_delay_ms", 5.0)),
        jitter_ms=float(spec.get("jitter_ms", 0.0)),
        n_frames=spec.get("n_frames"),
        time_scale=cfg.time_scale,
        seed=cfg.seed,
    )


def _build_detector(cfg: PipelineConfig, camera_id: int) -> SyntheticDetector:
    d = cfg.detector
    return SyntheticDetector(
        delay_ms=float(d.get("delay_ms", 0.0)),
        jitter_ms=float(d.get("jitter_ms", 0.0)),
        miss_rate=float(d.get("miss_rate", 0.0)),
        false_rate=float(d.get("false_rate", 0.0)),
        time_scale=cfg.time_scale,
        seed=(cfg.seed << 8) ^ (camera_id + 1),
    )


def _optimize(
    cfg: PipelineConfig, queue: QueueState,
    memo: Optional[nsga2.FrontMemo] = None,
) -> tuple[SignalPlan, dict, float]:
    t0 = time.monotonic()
    front = nsga2.run(
        queue, cfg.intersection, cfg.optimizer,
        guidance_pad_s=cfg.guidance_pad_s, memo=memo,
    )
    plan = nsga2.select_operating_point(
        front, cfg.policy, cfg.intersection, guidance_pad_s=cfg.guidance_pad_s
    )
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    chosen = next(
        ind for ind in front
        if ind.genome == plan.greens
    )
    return plan, chosen.objectives.to_dict(), elapsed_ms


def run_pipeline(cfg: PipelineConfig, cycles: int) -> PipelineResult:
    if cycles < 1:
        raise ConfigError("cycles must be >= 1")
    if cfg.timing == "sim":
        return _run_sim(cfg, cycles)
    if cfg.timing != "real":
        raise ConfigError(f"unknown timing mode {cfg.timing!r}")
    return _run_real(cfg, cycles)


def _run_real(cfg: PipelineConfig, cycles: int) -> PipelineResult:
    n = len(cfg.cameras)
    recorder = LatencyRecorder()
    aggregator = Aggregator(n, cfg.max_stale_windows)
    stop = threading.Event()
    statuses = [CameraStatus() for _ in range(n)]
    slots = [FrameSlot() for _ in range(n)]
    threads: list[threading.Thread] = []
    for i, spec in enumerate(cfg.cameras):
        camera, detector = _build_stage(spec, i, cfg)
        threads.append(threading.Thread(
            target=run_extraction_worker,
            args=(camera, slots[i], recorder, stop, statuses[i]),
            name=f"extract-{i}", daemon=True,
        ))
        threads.append(threading.Thread(
            target=run_inference_worker,
            args=(slots[i], detector, aggregator.submit, recorder, stop, statuses[i]),
            name=f"infer-{i}", daemon=True,
        ))
    for t in threads:
        t.start()

    results: list[CycleResult] = []
    breakdown = LatencyBreakdown()
    skipped = 0
    try:
        cycle_id = 0
        misses = 0
        while cycle_id < cycles:
            collected = aggregator.collect(cfg.window_ms)
            if collected is None:
                skipped += 1
                misses += 1
                log.warning("cycle skipped: all cameras stale")
                if misses > cfg.max_stale_windows + 1:
                    raise AllCamerasStale("no camera delivered any record")
                continue
            misses = 0
            queue, stale_links = collected
            # Drained before optimizing, so the cycle holds the samples of
            # the records that fed its snapshot: a record delivered while
            # the optimizer runs feeds the next snapshot, not this one.
            ext, inf = recorder.drain()
            # No front memo here: the ledger charges the measured optimizer
            # time, which a stored front would cut to ~1 ms, so T_latency
            # would no longer hold a per-cycle optimization.
            plan, objs, opt_ms = _optimize(cfg, queue)
            entry = CycleLatency(
                cycle_id=cycle_id,
                extraction_samples=ext,
                inference_samples=inf,
                optimization_ms=opt_ms,
            )
            breakdown.cycles.append(entry)
            results.append(CycleResult(cycle_id, queue, stale_links, plan, objs, entry))
            cycle_id += 1
    finally:
        stop.set()
        for s in slots:
            s.close()
        for t in threads:
            t.join(timeout=5.0)
    return PipelineResult(results, breakdown, statuses, skipped)


def _run_sim(cfg: PipelineConfig, cycles: int) -> PipelineResult:
    """Deterministic single-threaded rendition of the same dataflow.

    Stage delays come from the configured camera/detector models on a
    virtual clock; the optimizer's charge is the configured nominal value
    so ledgers are reproducible byte for byte. Since that charge does not
    depend on the optimizer's work, a cycle whose objective map an earlier
    cycle optimized reuses that cycle's front.
    """
    n = len(cfg.cameras)
    if any(spec.get("type") == "replay" for spec in cfg.cameras):
        raise ConfigError("timing='sim' supports synthetic cameras only")
    cameras = [_build_camera(spec, i, cfg) for i, spec in enumerate(cfg.cameras)]
    for cam in cameras:
        cam.time_scale = 0.0
    detectors = [_build_detector(cfg, i) for i in range(n)]
    for det in detectors:
        det.time_scale = 0.0

    results: list[CycleResult] = []
    breakdown = LatencyBreakdown()
    memo: nsga2.FrontMemo = {}
    virtual_ms = 0.0
    for cycle_id in range(cycles):
        ext_samples: list[float] = []
        inf_samples: list[float] = []
        motorized, non_motorized = [], []
        for i, (cam, det) in enumerate(zip(cameras, detectors)):
            ext_ms = cam.extraction_sample()
            frame = Frame(
                camera_id=i, seq=cycle_id, capture_ts_ms=virtual_ms,
                payload=dict(cam.counts), extraction_ms=ext_ms,
            )
            record, inf_ms = det.detect(frame)
            ext_samples.append(ext_ms)
            inf_samples.append(inf_ms)
            motorized.append(record.motorized_in)
            non_motorized.append(record.non_motorized_in)
        queue = QueueState(
            motorized=tuple(motorized),
            non_motorized=tuple(non_motorized),
            timestamp_ms=int(virtual_ms),
        )
        plan, objs, _ = _optimize(cfg, queue, memo)
        entry = CycleLatency(
            cycle_id=cycle_id,
            extraction_samples=ext_samples,
            inference_samples=inf_samples,
            optimization_ms=cfg.nominal_optimization_ms,
        )
        breakdown.cycles.append(entry)
        results.append(CycleResult(cycle_id, queue, [], plan, objs, entry))
        virtual_ms += entry.t_latency_ms
    return PipelineResult(results, breakdown, [CameraStatus() for _ in range(n)])
