"""In-memory span tracer that wraps the program's functions from outside.

``Tracer.install`` replaces module-level functions and class methods of the
program with wrappers that record one span per call: name, start, end,
parent span and the id of the op (optimize call, simulate call or pipeline
cycle) the span belongs to. Self time, a span's duration minus the part its
child spans cover, is accumulated as spans close. ``uninstall`` restores
the originals. Spans are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# Spans kept for the trace file; self times and counts cover every call.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.paused = False  # set while the benchmark checks outputs
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self, owner: Any, attr: str, name: str,
                on_return: Optional[Callable[[tuple, dict, Any], None]] = None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            result = tracer._call(name, original, args, kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0]  # id, nanoseconds covered by child spans
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.self_ns[name] += duration - frame[1]
                self.total_ns[name] += duration
                self.calls[name] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
                else:
                    self.dropped += 1

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6

    def total_ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def dump(self, path) -> None:
        """Write the spans as CSV: id,name,start_ns,end_ns,parent,op."""
        with open(path, "w") as fh:
            fh.write(f"# spans={len(self.spans)} dropped={self.dropped}\n")
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
