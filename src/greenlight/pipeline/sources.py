"""Frame sources: synthetic scene generators and detection-log replay.

A source is an iterable of Frames whose payload is the four class counts
the camera sees, so one detector serves every source. Sources pace
themselves with real sleeps (scaled by ``time_scale``); synthetic cameras
carry the per-frame extraction delay on the frame itself. Every source
stamps its frames with the pipeline's clock.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from ..core import (
    HOUR_MS,
    REAL,
    ConfigError,
    DetectionRecord,
    Section,
    setting,
)
from .buffers import Frame

# A frame's payload: the count of each detection class the camera sees.
COUNTS = ("motorized_in", "non_motorized_in", "motorized_out",
          "non_motorized_out")


class Clock:
    """Monotonic wall time in ms; a wait blocks on the caller's condition."""

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

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

    def wait_until(self, cond: threading.Condition, deadline_ms: float) -> None:
        self._ms = max(self._ms, deadline_ms)

    def advance(self, ms: float) -> None:
        self._ms += ms


@dataclass(eq=False)
class SyntheticCamera(Section):
    """Emits frames of a (possibly constant) ground-truth count scene.

    The ``setting`` fields are the keys of a synthetic camera entry; the
    pipeline supplies the others when it builds the camera. The frame
    payload is ``counts``, the four class counts visible to the camera.
    ``extract_delay_ms`` is slept (scaled) and recorded on the frame as
    the extraction-stage latency sample.
    """

    camera_id: int
    fps: float = setting(REAL, 10.0, above=0)
    motorized_in: int = setting(int, 0, low=0)
    non_motorized_in: int = setting(int, 0, low=0)
    motorized_out: int = setting(int, 0, low=0)
    non_motorized_out: int = setting(int, 0, low=0)
    extract_delay_ms: float = setting(REAL, 5.0, low=0, high=HOUR_MS)
    jitter_ms: float = setting(REAL, 0.0, low=0, high=HOUR_MS)
    n_frames: Optional[int] = setting(int, None, low=0)
    time_scale: float = 1.0
    seed: int = 0
    fail_after: Optional[int] = None
    clock: Clock = Clock()

    def __post_init__(self) -> None:
        super().__post_init__()
        self.counts = {key: getattr(self, key) for key in COUNTS}
        self._rng = random.Random((self.seed << 8) ^ self.camera_id)

    def __iter__(self) -> Iterator[Frame]:
        period_s = 1.0 / self.fps
        seq = 0
        while self.n_frames is None or seq < self.n_frames:
            if self.fail_after is not None and seq >= self.fail_after:
                raise RuntimeError(f"camera {self.camera_id} stream lost")
            jitter = self._rng.uniform(-self.jitter_ms, self.jitter_ms)
            extraction_ms = max(0.0, self.extract_delay_ms + jitter)
            sleep_s = (period_s + extraction_ms / 1000.0) * self.time_scale
            if sleep_s > 0:
                time.sleep(sleep_s)
            yield Frame(
                camera_id=self.camera_id,
                seq=seq,
                capture_ts_ms=self.clock.now_ms(),
                payload=dict(self.counts),
                extraction_ms=extraction_ms,
            )
            seq += 1


@dataclass(eq=False)
class ReplaySource(Section):
    """Replays camera ``camera_id``'s records of a line-delimited JSON
    detection log as frames.

    The ``setting`` fields are the keys of a replay camera entry; the
    pipeline supplies the others. Each frame's payload is the four class
    counts of one validated record, and its capture stamp is the
    pipeline's clock, not the logged ``frame_ts_ms``. A log that is not a
    readable file is a ``ConfigError`` when the source is built, before
    the pipeline starts any thread.
    """

    camera_id: int
    path: str = setting(str, path=True,
                        error="a replay camera needs a 'path' string")
    fps: float = setting(REAL, 10.0, above=0)
    time_scale: float = 0.0
    clock: Clock = Clock()

    def __post_init__(self) -> None:
        super().__post_init__()
        path = Path(self.path)
        if not (path.is_file() and os.access(path, os.R_OK)):
            raise ConfigError(
                f"replay log {path.name!r} is not a readable file in "
                f"{str(path.parent)!r}")

    def __iter__(self) -> Iterator[Frame]:
        period_s = 1.0 / self.fps
        seq = 0
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = DetectionRecord.from_dict(json.loads(line))
                if record.camera_id != self.camera_id:
                    continue
                if self.time_scale > 0:
                    time.sleep(period_s * self.time_scale)
                yield Frame(
                    camera_id=record.camera_id,
                    seq=seq,
                    capture_ts_ms=self.clock.now_ms(),
                    payload={key: getattr(record, key) for key in COUNTS},
                    extraction_ms=0.0,
                )
                seq += 1
