"""Frame sources: synthetic scene generators and detection-log replay.

A source is an iterable of Frames whose payload is the ``DetectionRecord``
of the counts the camera sees, so one detector serves every source. Every
source feeds one framing loop that paces each frame on the run's
``Clock`` (a frame period plus the extraction delay, which a synthetic
camera also records on the frame), stamps its capture on that clock and
numbers it.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterator, Optional

from ..core import (
    HOUR_MS,
    MAX_COUNT,
    REAL,
    ConfigError,
    DetectionRecord,
    Section,
    setting,
)
from .buffers import Frame

# The lowest frame rate: at most 100 s between frames, so a frame's pacing
# stays a sleep the platform takes at any ``time_scale``.
MIN_FPS = 0.01


class Clock:
    """Monotonic wall time in ms; a wait blocks on the caller's condition,
    and ``pace`` sleeps ``time_scale`` times an emulated stage delay."""

    def __init__(self, time_scale: float = 1.0) -> None:
        self.time_scale = time_scale

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def pace(self, ms: float) -> None:
        if ms > 0:
            time.sleep(ms * self.time_scale / 1000.0)

    def wait_until(self, cond: threading.Condition, deadline_ms: float) -> None:
        cond.wait(max(0.0, deadline_ms - self.now_ms()) / 1000.0)

    def advance(self, ms: float) -> None:
        """Wall time passes by itself."""


class VirtualClock(Clock):
    """Time that moves only by ``advance``; a wait runs to its deadline."""

    def __init__(self) -> None:
        self._ms = 0.0

    def now_ms(self) -> float:
        return self._ms

    def pace(self, ms: float) -> None:
        """Pacing takes no time."""

    def wait_until(self, cond: threading.Condition, deadline_ms: float) -> None:
        self._ms = max(self._ms, deadline_ms)

    def advance(self, ms: float) -> None:
        self._ms += ms


class _Source(Section):
    """The framing loop of every source: per (record, extraction ms) sample
    of ``_samples``, pace a frame period plus the extraction on ``clock``,
    then stamp and number the frame."""

    def __iter__(self) -> Iterator[Frame]:
        clock, period_ms = self.clock, 1000.0 / self.fps
        for seq, (record, extraction_ms) in enumerate(self._samples()):
            clock.pace(period_ms + extraction_ms)
            yield Frame(camera_id=self.camera_id, seq=seq,
                        capture_ts_ms=clock.now_ms(), payload=record,
                        extraction_ms=extraction_ms)


@dataclass(eq=False)
class SyntheticCamera(_Source):
    """Emits frames of a (possibly constant) ground-truth count scene.

    The ``setting`` fields are the keys of a synthetic camera entry; the
    pipeline supplies the others when it builds the camera. Every frame's
    payload is ``scene``, the camera's four class counts as one record.
    ``extract_delay_ms`` (with jitter) is paced and recorded on the frame
    as the extraction-stage latency sample.
    """

    camera_id: int
    fps: float = setting(REAL, 10.0, low=MIN_FPS)
    motorized_in: int = setting(int, 0, low=0, high=MAX_COUNT)
    non_motorized_in: int = setting(int, 0, low=0, high=MAX_COUNT)
    motorized_out: int = setting(int, 0, low=0, high=MAX_COUNT)
    non_motorized_out: int = setting(int, 0, low=0, high=MAX_COUNT)
    extract_delay_ms: float = setting(REAL, 5.0, low=0, high=HOUR_MS)
    jitter_ms: float = setting(REAL, 0.0, low=0, high=HOUR_MS)
    n_frames: Optional[int] = setting(int, None, low=0)
    seed: int = 0
    clock: Clock = Clock()

    def __post_init__(self) -> None:
        super().__post_init__()
        self.scene = DetectionRecord(
            camera_id=self.camera_id, frame_ts_ms=0,
            motorized_in=self.motorized_in, motorized_out=self.motorized_out,
            non_motorized_in=self.non_motorized_in,
            non_motorized_out=self.non_motorized_out)
        # A str seed is hashed, so no detector's int seed draws this stream.
        self._rng = random.Random(f"camera {self.seed} {self.camera_id}")

    def _samples(self) -> Iterator[tuple[DetectionRecord, float]]:
        for _ in count() if self.n_frames is None else range(self.n_frames):
            jitter = self._rng.uniform(-self.jitter_ms, self.jitter_ms)
            yield self.scene, max(0.0, self.extract_delay_ms + jitter)


@dataclass(eq=False)
class ReplaySource(_Source):
    """Replays camera ``camera_id``'s records of a line-delimited JSON
    detection log as frames, one per frame period.

    The ``setting`` fields are the keys of a replay camera entry; the
    pipeline supplies the others. Each frame's payload is one validated
    record of the log, and its capture stamp is the clock's; the detector
    stamps its record with that capture, not the logged ``frame_ts_ms``.
    A log that is not a readable file is a ``ConfigError`` when the source
    is built, before the pipeline starts any thread.
    """

    camera_id: int
    path: str = setting(str, path=True,
                        error="a replay camera needs a 'path' string")
    fps: float = setting(REAL, 10.0, low=MIN_FPS)
    clock: Clock = Clock()

    def __post_init__(self) -> None:
        super().__post_init__()
        path = Path(self.path)
        if not (path.is_file() and os.access(path, os.R_OK)):
            raise ConfigError(
                f"replay log {path.name!r} is not a readable file in "
                f"{str(path.parent)!r}")

    def _samples(self) -> Iterator[tuple[DetectionRecord, float]]:
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = DetectionRecord.from_dict(json.loads(line))
                if record.camera_id == self.camera_id:
                    yield record, 0.0
