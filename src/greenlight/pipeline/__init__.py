from .buffers import Frame, FrameSlot
from .detectors import SyntheticDetector
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
    "Frame",
    "FrameSlot",
    "LatencyBreakdown",
    "PipelineConfig",
    "PipelineResult",
    "ReplaySource",
    "SyntheticCamera",
    "SyntheticDetector",
    "run_extraction_worker",
    "run_pipeline",
]
