"""Latest-only single-slot frame buffer shared by one producer/consumer pair."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..core import DetectionRecord


@dataclass(frozen=True)
class Frame:
    camera_id: int
    seq: int
    capture_ts_ms: float
    payload: DetectionRecord
    extraction_ms: float = 0.0


class FrameSlot:
    """Holds at most one frame; a new write replaces any unconsumed frame.

    ``put`` never blocks. ``take`` blocks until a frame is available, the
    timeout expires, or the slot is closed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._frame: Optional[Frame] = None
        self._closed = False
        self.drops = 0

    def put(self, frame: Frame) -> None:
        """Store ``frame``, counting an unconsumed one it replaces in ``drops``."""
        with self._cond:
            if self._frame is not None:
                self.drops += 1
            self._frame = frame
            self._cond.notify()

    def take(self, timeout: Optional[float] = None) -> Optional[Frame]:
        """Remove and return the newest frame, or None on timeout/close."""
        with self._cond:
            if self._frame is None and not self._closed:
                self._cond.wait(timeout)
            frame, self._frame = self._frame, None
            return frame

    def peek_empty(self) -> bool:
        with self._cond:
            return self._frame is None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
