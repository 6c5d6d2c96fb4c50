from .buffers import Frame, FrameSlot
from .detectors import SyntheticDetector
from .orchestrator import (
    Aggregator,
    AllCamerasStale,
    CameraStatus,
    CycleLatency,
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
    "PipelineConfig",
    "PipelineResult",
    "ReplaySource",
    "SyntheticCamera",
    "SyntheticDetector",
    "run_extraction_worker",
    "run_pipeline",
]
