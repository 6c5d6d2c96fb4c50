"""The detector stage: turns a frame's four class counts into a
DetectionRecord.

``SyntheticDetector`` is the one detector for every camera, synthetic or
replay: ``detect`` returns (record, inference_ms). It emulates a model with
a characteristic per-frame delay, paced on the run's ``Clock``, and
configurable count noise, whatever source the counts came from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import HOUR_MS, MAX_COUNT, REAL, DetectionRecord, Section, setting
from .buffers import Frame
from .sources import Clock


@dataclass(eq=False)
class SyntheticDetector(Section):
    """Emulated detector: fixed delay with jitter, miss/false-count noise.

    The ``setting`` fields are the keys of a pipeline config's
    ``detector`` entry; the pipeline supplies the others. The delay is
    paced on ``clock``, which sets how long it really takes; the reported
    inference sample is always the emulated delay, so latency ledgers
    reflect the modeled detector regardless of how fast the host runs.
    """

    delay_ms: float = setting(REAL, 0.0, low=0, high=HOUR_MS)
    jitter_ms: float = setting(REAL, 0.0, low=0, high=HOUR_MS)
    miss_rate: float = setting(REAL, 0.0, low=0, high=1)
    # The Poisson draw stops at exp(-false_rate), which must stay a normal
    # double (up to ~708); past that, every rate draws the same ~745.
    false_rate: float = setting(REAL, 0.0, low=0, high=700)
    clock: Clock = Clock()
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._rng = random.Random(self.seed)

    def _noisy(self, count: int) -> int:
        if self.miss_rate > 0:
            count = sum(
                1 for _ in range(count) if self._rng.random() >= self.miss_rate
            )
        if self.false_rate > 0:
            # Poisson draw via inversion.
            L = self.false_rate
            k, p, thresh = 0, 1.0, pow(2.718281828459045, -L)
            while True:
                p *= self._rng.random()
                if p <= thresh:
                    break
                k += 1
            count += k
        # False counts saturate at a record's ceiling rather than fail it.
        return min(count, MAX_COUNT)

    def detect(self, frame: Frame) -> tuple[DetectionRecord, float]:
        jitter = self._rng.uniform(-self.jitter_ms, self.jitter_ms)
        inference_ms = max(0.0, self.delay_ms + jitter)
        self.clock.pace(inference_ms)
        counts = frame.payload
        record = DetectionRecord(
            camera_id=frame.camera_id,
            frame_ts_ms=int(frame.capture_ts_ms),
            motorized_in=self._noisy(counts["motorized_in"]),
            motorized_out=counts.get("motorized_out", 0),
            non_motorized_in=self._noisy(counts.get("non_motorized_in", 0)),
            non_motorized_out=counts.get("non_motorized_out", 0),
        )
        return record, inference_ms

