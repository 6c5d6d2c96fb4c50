from .buffers import Frame, FrameSlot
from .detectors import DetectorAdapter, ReplayDetector, SyntheticDetector
from .latency import CycleLatency, LatencyBreakdown
from .orchestrator import (
    Aggregator,
    AllCamerasStale,
    CameraStatus,
    PipelineConfig,
    PipelineResult,
    run_extraction_worker,
    run_pipeline,
)
from .sources import ReplaySource, SyntheticCamera

__all__ = [
    "Aggregator",
    "AllCamerasStale",
    "CameraStatus",
    "CycleLatency",
    "DetectorAdapter",
    "Frame",
    "FrameSlot",
    "LatencyBreakdown",
    "PipelineConfig",
    "PipelineResult",
    "ReplayDetector",
    "ReplaySource",
    "SyntheticCamera",
    "SyntheticDetector",
    "run_extraction_worker",
    "run_pipeline",
]
