"""Pipeline orchestration: stage steps, windowed aggregation, cycle loop.

Per camera, ``extract_one`` moves the next frame into a latest-only slot
and ``infer_one`` turns a frame taken from the slot into a DetectionRecord
for the aggregator, and both steps report their stage samples to it. Every
camera, synthetic or replay, has a ``SyntheticDetector`` built from the
config's one ``detector`` entry. A snapshot is one ``Aggregator.collect``:
under the aggregator's lock it takes one window of records as a
QueueState, hands over the stage samples recorded since the last snapshot
that produced a queue, and releases each camera's next detection. Each
cycle of ``run_pipeline`` takes one snapshot, invokes the optimizer and
appends a latency-ledger entry.

Both timings detect one frame per live camera per snapshot.
``timing="real"`` runs the steps against the wall clock in one extraction
thread per camera, which captures without pause like an RTSP feed, and
one detection thread per camera, which detects on its first frame
captured after the release, so detection overlaps the optimizer and a
snapshot's records were captured close together. ``timing="sim"`` starts
no thread: before each collect the loop moves one frame per live camera
through the same steps. Every stage paces and stamps on the run's one
``Clock``: the wall clock at ``time_scale`` in ``real`` timing, a virtual
clock in ``sim``, so every output (including the ledger) is deterministic.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .. import nsga2
from ..core import (
    HOUR_MS,
    ConfigError,
    DetectionRecord,
    IntersectionConfig,
    ListOf,
    OneOf,
    QueueState,
    Section,
    SignalPlan,
    setting,
    table,
)
from .buffers import Frame, FrameSlot
from .detectors import SyntheticDetector
from .latency import CycleLatency, LatencyBreakdown
from .sources import Clock, ReplaySource, SyntheticCamera, VirtualClock

log = logging.getLogger(__name__)


@dataclass
class CameraStatus:
    alive: bool = True
    error: Optional[str] = None
    frames: int = 0
    detector_errors: int = 0


def extract_one(frames: Iterator[Frame], slot: FrameSlot,
                aggregator: Aggregator, status: CameraStatus) -> bool:
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
    aggregator.add_extraction(frame.extraction_ms)
    status.frames += 1
    slot.put(frame)
    return True


def infer_one(frame: Frame, detector: SyntheticDetector,
              aggregator: Aggregator, status: CameraStatus) -> None:
    """Detect on ``frame``; exactly one record per frame the detector does
    not fail on."""
    try:
        record, inference_ms = detector.detect(frame)
    except Exception as exc:
        status.detector_errors += 1
        log.warning("detector failed on frame %s: %s", frame.seq, exc)
        return
    aggregator.add_inference(inference_ms)
    aggregator.submit(record)


def run_extraction_worker(
    source: Iterable[Frame],
    slot: FrameSlot,
    aggregator: Aggregator,
    status: CameraStatus,
) -> None:
    """Feed every frame of ``source`` into the slot until it ends or the
    aggregator closes."""
    frames = iter(source)
    while not aggregator.closed and extract_one(frames, slot, aggregator, status):
        pass


def run_detection_worker(
    slot: FrameSlot,
    detector: SyntheticDetector,
    aggregator: Aggregator,
    status: CameraStatus,
) -> None:
    """Detect once per release, on the slot's first frame captured after
    the release, until the aggregator closes. A camera still detecting
    when a snapshot is taken serves its release as soon as it is done; a
    dead camera waits on its slot until the slot closes."""
    seen = 0
    while (released := aggregator.wait_release(seen)) is not None:
        seen, since_ms = released
        frame = slot.take()
        while frame is not None and frame.capture_ts_ms < since_ms:
            frame = slot.take()
        if frame is not None:
            infer_one(frame, detector, aggregator, status)


class Aggregator:
    """Collects the latest DetectionRecord per camera into a QueueState, and
    owns the cycle boundary: one ``collect`` is one snapshot.

    A window completes when every camera has delivered a record since the
    previous window; on timeout, cameras missing for at most
    ``max_stale_windows`` consecutive windows reuse their last counts,
    older ones fall back to zero. Either way the link is flagged stale.
    The stage steps add their samples here, and each snapshot that
    produces a queue hands over the samples added since the last one. Every
    collect, and creation, releases the cameras' next detections
    (``wait_release``). Waits, queue timestamps and release stamps use
    ``clock``.
    """

    def __init__(self, num_cameras: int, max_stale_windows: int = 2,
                 clock: Clock = Clock()):
        self.num_cameras = num_cameras
        self.max_stale_windows = max_stale_windows
        self.closed = False
        self._clock = clock
        self._cond = threading.Condition()
        self._latest: list[Optional[DetectionRecord]] = [None] * num_cameras
        self._fresh = [False] * num_cameras  # delivered since the last collect
        self._stale_streak = [0] * num_cameras
        self._extraction: list[float] = []
        self._inference: list[float] = []
        self._released = 1  # before any capture: every first frame counts
        self._released_ms = clock.now_ms()

    def add_extraction(self, ms: float) -> None:
        with self._cond:
            self._extraction.append(ms)

    def add_inference(self, ms: float) -> None:
        with self._cond:
            self._inference.append(ms)

    def submit(self, record: DetectionRecord) -> None:
        if not (0 <= record.camera_id < self.num_cameras):
            raise ConfigError(f"camera id {record.camera_id} out of range")
        with self._cond:
            self._latest[record.camera_id] = record
            self._fresh[record.camera_id] = True
            self._cond.notify_all()

    def collect(self, window_ms: float) -> Optional[
            tuple[QueueState, list[int], list[float], list[float]]]:
        """Take one snapshot; returns (queue, stale_links, extraction
        samples, inference samples), or None if every camera is stale
        beyond the reuse budget, which keeps the samples for the next one.

        A camera is fresh when it has delivered a record since the previous
        collect; missing cameras are waited on for up to ``window_ms``
        before the stale policy applies. Every collect releases the
        cameras' next detections.
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
            self._released += 1
            self._released_ms = now = self._clock.now_ms()
            self._cond.notify_all()
            if usable == 0:
                return None
            queue = QueueState(
                motorized=tuple(motorized),
                non_motorized=tuple(non_motorized),
                timestamp_ms=int(now),
            )
            ext, self._extraction = self._extraction, []
            inf, self._inference = self._inference, []
            return queue, stale_links, ext, inf

    def wait_release(self, seen: int) -> Optional[tuple[int, float]]:
        """Block until a release after the ``seen``-th, or ``close``; returns
        that release's (count, stamp in ms), or None once closed."""
        with self._cond:
            self._cond.wait_for(lambda: self.closed or self._released > seen)
            return None if self.closed else (self._released, self._released_ms)

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()


# Camera and detector entries stay JSON objects, so the manifest records
# them as written (a replay log's relative path joined to the config file's
# directory). Their keys are the ``setting`` fields of the stage classes
# they build, which declare each key's kind, bound and default once. The
# one detector entry builds every camera's detector, replay included.
CAMERA = OneOf("type", {"synthetic": table(SyntheticCamera),
                        "replay": table(ReplaySource)}, default="synthetic")


@dataclass
class PipelineConfig(Section):
    NAME = "pipeline"

    intersection: IntersectionConfig = setting(IntersectionConfig, path=True)
    cameras: tuple[dict, ...] = setting(
        ListOf(CAMERA, nonempty=True, entry="camera"),
        error="pipeline config needs a non-empty 'cameras' list")
    detector: dict = setting(table(SyntheticDetector), factory=dict)
    window_ms: float = setting(float, 500.0, low=0, high=HOUR_MS)
    max_stale_windows: int = setting(int, 2, low=0)
    optimizer: nsga2.OptimizerParams = setting(
        nsga2.OptimizerParams, factory=nsga2.OptimizerParams)
    policy: str = setting(nsga2.POLICIES, "knee")
    guidance_pad_s: int = setting(int, 0, low=0)
    timing: str = setting(("real", "sim"), "real")
    # A pacing sleep stays one the platform takes: at most 100 s of frame
    # period plus two hours of extraction delay and jitter, times 100.
    time_scale: float = setting(float, 1.0, above=0, high=100)
    nominal_optimization_ms: float = setting(float, 250.0, low=0,
                                             high=HOUR_MS)
    seed: int = setting(int, 0, low=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.cameras) != self.intersection.num_links:
            raise ConfigError(
                f"{len(self.cameras)} cameras configured for "
                f"{self.intersection.num_links} links"
            )


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
    spec: dict, camera_id: int, cfg: PipelineConfig, clock: Clock,
) -> tuple[Iterator[Frame], SyntheticDetector]:
    """Build the (frames, detector) pair for one camera slot; both stages
    pace on ``clock``."""
    args = {key: value for key, value in spec.items() if key != "type"}
    if spec.get("type") == "replay":
        source = ReplaySource(camera_id=camera_id, clock=clock, **args)
    else:
        source = SyntheticCamera(camera_id, seed=cfg.seed, clock=clock, **args)
    detector = SyntheticDetector(
        clock=clock, seed=(cfg.seed << 8) ^ (camera_id + 1), **cfg.detector)
    return iter(source), detector


def run_pipeline(cfg: PipelineConfig, cycles: int) -> PipelineResult:
    """Run ``cycles`` cycles of snapshot, optimize and ledger entry.

    Each live camera detects one frame per snapshot. In ``real`` timing
    each collect (a skipped one too) releases the cameras' next
    detections, and each detects its first frame captured after the
    release, while the optimizer runs. A camera still detecting serves the
    release once it is done.

    Every cycle's plan comes from one ``nsga2.Planner`` built for the run.
    In ``sim`` timing the virtual clock advances by each cycle's ledger
    latency, and the ledger charges the optimizer its nominal time, so
    ledgers are reproducible byte for byte. Since that charge does not
    depend on the optimizer's work, the planner reuses fronts: a cycle
    whose objective map an earlier cycle optimized gets that cycle's front.
    In ``real`` timing it evolves a front every cycle: the ledger charges
    the measured planner time, which a stored front would cut to ~1 ms, so
    T_latency would no longer hold a per-cycle optimization.
    """
    if cycles < 1:
        raise ConfigError("cycles must be >= 1")
    sim = cfg.timing == "sim"
    clock = VirtualClock() if sim else Clock(cfg.time_scale)
    planner = nsga2.Planner(cfg.intersection, cfg.optimizer, cfg.policy,
                            cfg.guidance_pad_s, reuse_fronts=sim)
    n = len(cfg.cameras)
    statuses = [CameraStatus() for _ in range(n)]
    slots = [FrameSlot() for _ in range(n)]
    stages = [_build_stage(spec, i, cfg, clock) for i, spec in enumerate(cfg.cameras)]
    aggregator = Aggregator(n, cfg.max_stale_windows, clock)
    threads = [] if sim else [
        threading.Thread(target=target, args=args, name=f"{name}-{i}", daemon=True)
        for i, (frames, detector) in enumerate(stages)
        for name, target, args in (
            ("extract", run_extraction_worker,
             (frames, slots[i], aggregator, statuses[i])),
            ("infer", run_detection_worker,
             (slots[i], detector, aggregator, statuses[i])),
        )
    ]
    for t in threads:
        t.start()

    results: list[CycleResult] = []
    skipped = misses = 0
    try:
        while len(results) < cycles:
            # In sim, one frame per live camera goes through the stage steps.
            for i, (frames, detector) in enumerate(stages):
                if sim and statuses[i].alive and extract_one(
                        frames, slots[i], aggregator, statuses[i]):
                    infer_one(slots[i].take(0.0), detector, aggregator,
                              statuses[i])
            collected = aggregator.collect(cfg.window_ms)
            if collected is None:
                skipped += 1
                misses += 1
                log.warning("cycle skipped: all cameras stale")
                if misses > cfg.max_stale_windows + 1:
                    raise AllCamerasStale("no camera delivered any record")
                continue
            misses = 0
            queue, stale_links, ext, inf = collected
            t0 = clock.now_ms()
            _, plan, chosen = planner(queue)
            entry = CycleLatency(
                cycle_id=len(results),
                extraction_samples=ext,
                inference_samples=inf,
                optimization_ms=(cfg.nominal_optimization_ms if sim
                                 else clock.now_ms() - t0),
            )
            results.append(CycleResult(entry.cycle_id, queue, stale_links, plan,
                                       chosen.objectives.to_dict(), entry))
            clock.advance(entry.t_latency_ms)
    finally:
        aggregator.close()
        for s in slots:
            s.close()
        for t in threads:
            t.join(timeout=5.0)
    breakdown = LatencyBreakdown([c.latency for c in results])
    return PipelineResult(results, breakdown, statuses, skipped)
