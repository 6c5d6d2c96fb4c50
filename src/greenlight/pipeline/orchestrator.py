"""Pipeline orchestration: stage steps, windowed aggregation, cycle loop.

Per camera, ``extract_one`` moves the next frame into a latest-only slot
and ``infer_one`` turns the slot's frame into a DetectionRecord for the
aggregator. Each cycle of ``run_pipeline`` collects one window of records
into a QueueState, drains the stage samples, invokes the optimizer and
appends a latency-ledger entry.

``timing="real"`` runs the steps in one extraction and one inference
thread per camera against the wall clock. ``timing="sim"`` starts no
thread: before each collect the loop moves one frame per live camera
through the same steps, and the aggregator and sources read a virtual
clock, so every output (including the ledger) is deterministic.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from .. import nsga2
from ..core import (
    ConfigError,
    DetectionRecord,
    IntersectionConfig,
    QueueState,
    SignalPlan,
    check_fields,
    integer_field,
    load_intersection_config,
    number_field,
)
from .buffers import Frame, FrameSlot
from .detectors import DetectorAdapter, ReplayDetector, SyntheticDetector
from .latency import CycleLatency, LatencyBreakdown, LatencyRecorder
from .sources import Clock, ReplaySource, SyntheticCamera, VirtualClock

log = logging.getLogger(__name__)


@dataclass
class CameraStatus:
    alive: bool = True
    error: Optional[str] = None
    frames: int = 0
    detector_errors: int = 0


def extract_one(frames: Iterator[Frame], slot: FrameSlot,
                recorder: LatencyRecorder, status: CameraStatus) -> bool:
    """Move the next frame into the slot, newest-wins; False once the
    source has ended or failed, which marks the camera dead."""
    try:
        frame = next(frames, None)
    except Exception as exc:  # camera marked dead, pipeline survives
        status.error = str(exc)
        log.warning("extraction failed: %s", exc)
        frame = None
    if frame is None:
        status.alive = False
        return False
    recorder.add_extraction(frame.extraction_ms)
    status.frames += 1
    slot.put(frame)
    return True


def infer_one(slot: FrameSlot, detector: DetectorAdapter,
              sink: Callable[[DetectionRecord], None], recorder: LatencyRecorder,
              status: CameraStatus, timeout: Optional[float]) -> None:
    """Detect on the slot's frame, if one comes within ``timeout``; exactly
    one record per frame the detector does not fail on."""
    frame = slot.take(timeout)
    if frame is None:
        return
    try:
        record, inference_ms = detector.detect(frame)
    except Exception as exc:
        status.detector_errors += 1
        log.warning("detector failed on frame %s: %s", frame.seq, exc)
        return
    recorder.add_inference(inference_ms)
    sink(record)


def run_extraction_worker(
    source: Iterable[Frame],
    slot: FrameSlot,
    recorder: LatencyRecorder,
    stop: threading.Event,
    status: CameraStatus,
) -> None:
    """Feed every frame of ``source`` into the slot until it ends or stop."""
    frames = iter(source)
    while not stop.is_set() and extract_one(frames, slot, recorder, status):
        pass


def run_inference_worker(
    slot: FrameSlot,
    detector: DetectorAdapter,
    sink: Callable[[DetectionRecord], None],
    recorder: LatencyRecorder,
    stop: threading.Event,
    status: CameraStatus,
) -> None:
    """Detect on each taken frame until stop."""
    while not stop.is_set():
        infer_one(slot, detector, sink, recorder, status, timeout=0.05)


class Aggregator:
    """Collects the latest DetectionRecord per camera into a QueueState.

    A window completes when every camera has delivered a record since the
    previous window; on timeout, cameras missing for at most
    ``max_stale_windows`` consecutive windows reuse their last counts,
    older ones fall back to zero. Either way the link is flagged stale.
    Waits and queue timestamps use ``clock``.
    """

    def __init__(self, num_cameras: int, max_stale_windows: int = 2,
                 clock: Clock = Clock()):
        self.num_cameras = num_cameras
        self.max_stale_windows = max_stale_windows
        self._clock = clock
        self._cond = threading.Condition()
        self._latest: list[Optional[DetectionRecord]] = [None] * num_cameras
        self._fresh = [False] * num_cameras  # delivered since the last collect
        self._stale_streak = [0] * num_cameras

    def submit(self, record: DetectionRecord) -> None:
        if not (0 <= record.camera_id < self.num_cameras):
            raise ConfigError(f"camera id {record.camera_id} out of range")
        with self._cond:
            self._latest[record.camera_id] = record
            self._fresh[record.camera_id] = True
            self._cond.notify_all()

    def collect(self, window_ms: float) -> Optional[tuple[QueueState, list[int]]]:
        """Wait for one window; returns (queue, stale_links) or None if every
        camera is stale beyond the reuse budget.

        A camera is fresh when it has delivered a record since the previous
        collect; missing cameras are waited on for up to ``window_ms``
        before the stale policy applies.
        """
        deadline = self._clock.now_ms() + window_ms
        with self._cond:
            while not all(self._fresh) and self._clock.now_ms() < deadline:
                self._clock.wait_until(self._cond, deadline)

            motorized, non_motorized, stale_links = [], [], []
            usable = 0
            for i in range(self.num_cameras):
                rec = self._latest[i]
                if self._fresh[i]:
                    self._stale_streak[i] = 0
                else:
                    self._stale_streak[i] += 1
                    stale_links.append(i)
                    if self._stale_streak[i] > self.max_stale_windows:
                        rec = None
                usable += rec is not None
                motorized.append(rec.motorized_in if rec else 0)
                non_motorized.append(rec.non_motorized_in if rec else 0)
            self._fresh = [False] * self.num_cameras
            if usable == 0:
                return None
            queue = QueueState(
                motorized=tuple(motorized),
                non_motorized=tuple(non_motorized),
                timestamp_ms=int(self._clock.now_ms()),
            )
            return queue, stale_links


# The keys of a synthetic camera entry: SyntheticCamera arguments, by type.
_SYNTHETIC = {"fps": float, "motorized_in": int, "non_motorized_in": int,
              "motorized_out": int, "non_motorized_out": int,
              "extract_delay_ms": float, "jitter_ms": float, "n_frames": int}
_DETECTOR_KEYS = ("delay_ms", "jitter_ms", "miss_rate", "false_rate")


def _check_camera(spec: Any, what: str) -> None:
    """Raise ``ConfigError`` unless ``spec`` is a valid camera entry."""
    replay = isinstance(spec, dict) and spec.get("type") == "replay"
    check_fields(spec, {"type", "path", "fps"} if replay else {"type", *_SYNTHETIC},
                 what)
    try:
        if spec.get("type", "synthetic") not in ("synthetic", "replay"):
            raise ConfigError(f"unknown type {spec['type']!r}")
        if replay and not isinstance(spec.get("path"), str):
            raise ConfigError("a replay camera needs a 'path' string")
        for key, kind in _SYNTHETIC.items():
            if key in spec and (key != "n_frames" or spec[key] is not None):
                (integer_field if kind is int else number_field)(spec, key, low=0)
        if spec.get("fps", 10.0) <= 0:
            raise ConfigError(f"fps must be > 0, got {spec['fps']!r}")
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None


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
        if not isinstance(cameras, list) or not cameras:
            raise ConfigError("pipeline config needs a non-empty 'cameras' list")
        if len(cameras) != cfg.num_links:
            raise ConfigError(
                f"{len(cameras)} cameras configured for {cfg.num_links} links"
            )
        for i, spec in enumerate(cameras):
            _check_camera(spec, f"camera {i}")
        detector = d.get("detector", {})
        check_fields(detector, _DETECTOR_KEYS, "detector")
        for key in _DETECTOR_KEYS:
            number_field(detector, key, 0.0, low=0)
        policy = d.get("policy", "knee")
        nsga2.check_selection(policy)
        return cls(
            intersection=cfg,
            cameras=list(cameras),
            detector=dict(detector),
            window_ms=float(number_field(d, "window_ms", 500.0, low=0)),
            max_stale_windows=integer_field(d, "max_stale_windows", 2, low=0),
            optimizer=nsga2.OptimizerParams.from_dict(d.get("optimizer", {})),
            policy=policy,
            guidance_pad_s=integer_field(d, "guidance_pad_s", 0, low=0),
            timing=d.get("timing", "real"),
            time_scale=float(number_field(d, "time_scale", 1.0, low=0)),
            nominal_optimization_ms=float(
                number_field(d, "nominal_optimization_ms", 250.0, low=0)),
            seed=integer_field(d, "seed", 0),
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


class AllCamerasStale(RuntimeError):
    """No camera produced a usable record within the stale budget."""


def _build_stage(
    spec: dict, camera_id: int, cfg: PipelineConfig, time_scale: float,
    clock: Clock,
) -> tuple[Iterator[Frame], DetectorAdapter]:
    """Build the (frames, detector) pair for one camera slot; stage sleeps
    are scaled by ``time_scale``."""
    if spec.get("type") == "replay":
        source = ReplaySource(spec["path"], camera_id=camera_id, time_scale=time_scale,
                              fps=float(spec.get("fps", 10.0)), clock=clock)
        return iter(source), ReplayDetector(float(cfg.detector.get("delay_ms", 0.0)))
    camera = SyntheticCamera(
        camera_id, time_scale=time_scale, seed=cfg.seed, clock=clock,
        **{key: kind(spec[key]) for key, kind in _SYNTHETIC.items()
           if spec.get(key) is not None},
    )
    detector = SyntheticDetector(
        time_scale=time_scale, seed=(cfg.seed << 8) ^ (camera_id + 1),
        **{key: float(value) for key, value in cfg.detector.items()},
    )
    return iter(camera), detector


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
    chosen = next(ind for ind in front if ind.genome == plan.greens)
    return plan, chosen.objectives.to_dict(), elapsed_ms


def run_pipeline(cfg: PipelineConfig, cycles: int) -> PipelineResult:
    """Run ``cycles`` cycles of collect, drain, optimize and ledger entry.

    In ``sim`` timing the virtual clock advances by each cycle's ledger
    latency, and the ledger charges the optimizer its nominal time, so
    ledgers are reproducible byte for byte. Since that charge does not
    depend on the optimizer's work, a cycle whose objective map an earlier
    cycle optimized reuses that cycle's front. ``real`` timing keeps no
    front memo: its ledger charges the measured optimizer time, which a
    stored front would cut to ~1 ms, so T_latency would no longer hold a
    per-cycle optimization.
    """
    if cycles < 1:
        raise ConfigError("cycles must be >= 1")
    if cfg.timing not in ("real", "sim"):
        raise ConfigError(f"unknown timing mode {cfg.timing!r}")
    sim = cfg.timing == "sim"
    clock = VirtualClock() if sim else Clock()
    n = len(cfg.cameras)
    recorder = LatencyRecorder()
    aggregator = Aggregator(n, cfg.max_stale_windows, clock)
    stop = threading.Event()
    statuses = [CameraStatus() for _ in range(n)]
    slots = [FrameSlot() for _ in range(n)]
    stages = [_build_stage(spec, i, cfg, 0.0 if sim else cfg.time_scale, clock)
              for i, spec in enumerate(cfg.cameras)]
    threads = [] if sim else [
        threading.Thread(target=target, args=args, name=f"{name}-{i}", daemon=True)
        for i, (frames, detector) in enumerate(stages)
        for name, target, args in (
            ("extract", run_extraction_worker,
             (frames, slots[i], recorder, stop, statuses[i])),
            ("infer", run_inference_worker,
             (slots[i], detector, aggregator.submit, recorder, stop, statuses[i])),
        )
    ]
    for t in threads:
        t.start()

    results: list[CycleResult] = []
    memo: Optional[nsga2.FrontMemo] = {} if sim else None
    skipped = misses = 0
    try:
        while len(results) < cycles:
            # In sim, one frame per live camera goes through the stage steps.
            for i, (frames, detector) in enumerate(stages):
                if sim and statuses[i].alive and extract_one(
                        frames, slots[i], recorder, statuses[i]):
                    infer_one(slots[i], detector, aggregator.submit, recorder,
                              statuses[i], timeout=0.0)
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
            plan, objs, opt_ms = _optimize(cfg, queue, memo)
            entry = CycleLatency(
                cycle_id=len(results),
                extraction_samples=ext,
                inference_samples=inf,
                optimization_ms=cfg.nominal_optimization_ms if sim else opt_ms,
            )
            results.append(
                CycleResult(entry.cycle_id, queue, stale_links, plan, objs, entry))
            clock.advance(entry.t_latency_ms)
    finally:
        stop.set()
        for s in slots:
            s.close()
        for t in threads:
            t.join(timeout=5.0)
    breakdown = LatencyBreakdown([c.latency for c in results])
    return PipelineResult(results, breakdown, statuses, skipped)
