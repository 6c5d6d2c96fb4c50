"""Domain data model, configuration loading, and JSON serialization.

All types here are immutable value objects; they can be shared freely
between threads.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

# A link is one approach road feeding the intersection; links are addressed
# by their integer index in [0, num_links).
LinkId = int


class ConfigError(ValueError):
    """Raised when a config or input file fails validation."""


def check_fields(d: Any, cls: Any, what: str) -> None:
    """Raise ``ConfigError`` unless ``d`` is a JSON object whose every key
    names a field of the dataclass ``cls`` (or is in the key set ``cls``);
    ``what`` names the section."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    names = {f.name for f in fields(cls)} if is_dataclass(cls) else set(cls)
    unknown = sorted(set(d) - names)
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}")


def number_field(d: dict, key: str, default: Any = None, low: Any = None):
    """``d[key]``, or ``default``, which must be a number no less than
    ``low``; bools and strings raise ``ConfigError``, not coerced."""
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{key} must be >= {low}, got {value!r}")
    return value


def integer_field(d: dict, key: str, default: Any = None, low: Any = None) -> int:
    """``number_field`` for an integral number (``40`` or ``40.0``)."""
    value = number_field(d, key, default, low)
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def integer_list(d: dict, key: str, default: Any = None,
                 low: Any = None) -> list[int]:
    """``d[key]``, or ``default``: a list of integral numbers, each no less
    than ``low``."""
    value = d.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    return [integer_field({key: v}, key, low=low) for v in value]


@dataclass(frozen=True)
class IntersectionConfig:
    num_links: int
    link_names: tuple[str, ...] = ()
    min_green_s: int = 10
    max_green_s: int = 60
    inter_green_s: int = 3
    sat_flow_motorized: float = 0.5
    sat_flow_non_motorized: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.num_links, int) or self.num_links < 2:
            raise ConfigError("num_links must be an integer >= 2")
        if not self.link_names:
            object.__setattr__(
                self, "link_names",
                tuple(f"link-{i}" for i in range(self.num_links)),
            )
        else:
            object.__setattr__(self, "link_names", tuple(self.link_names))
        if len(self.link_names) != self.num_links:
            raise ConfigError("link_names must have exactly num_links entries")
        if self.min_green_s < 1:
            raise ConfigError("min_green_s must be >= 1")
        if self.max_green_s < self.min_green_s:
            raise ConfigError("max_green_s must be >= min_green_s")
        if self.inter_green_s < 0:
            raise ConfigError("inter_green_s must be >= 0")
        if self.sat_flow_motorized <= 0:
            raise ConfigError("sat_flow_motorized must be > 0")
        if self.sat_flow_non_motorized <= 0:
            raise ConfigError("sat_flow_non_motorized must be > 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_links": self.num_links,
            "link_names": list(self.link_names),
            "min_green_s": self.min_green_s,
            "max_green_s": self.max_green_s,
            "inter_green_s": self.inter_green_s,
            "sat_flow_motorized": self.sat_flow_motorized,
            "sat_flow_non_motorized": self.sat_flow_non_motorized,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "IntersectionConfig":
        check_fields(d, cls, "intersection")
        if "num_links" not in d:
            raise ConfigError("missing required field 'num_links'")
        names = d.get("link_names") or []
        if not (isinstance(names, (list, tuple))
                and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"link_names must be a list of strings, got {names!r}")
        return cls(
            num_links=integer_field(d, "num_links"),
            link_names=tuple(names),
            min_green_s=integer_field(d, "min_green_s", 10),
            max_green_s=integer_field(d, "max_green_s", 60),
            inter_green_s=integer_field(d, "inter_green_s", 3),
            sat_flow_motorized=number_field(d, "sat_flow_motorized", 0.5),
            sat_flow_non_motorized=number_field(d, "sat_flow_non_motorized", 0.25),
        )


@dataclass(frozen=True)
class QueueState:
    """Per-link waiting-vehicle counts, split motorized / non-motorized."""

    motorized: tuple[int, ...]
    non_motorized: tuple[int, ...]
    timestamp_ms: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "motorized", tuple(int(v) for v in self.motorized))
        object.__setattr__(
            self, "non_motorized", tuple(int(v) for v in self.non_motorized)
        )
        if len(self.motorized) != len(self.non_motorized):
            raise ConfigError("motorized and non_motorized must have equal length")
        if any(v < 0 for v in self.motorized + self.non_motorized):
            raise ConfigError("queue counts must be non-negative")

    @property
    def num_links(self) -> int:
        return len(self.motorized)

    def total(self) -> int:
        return sum(self.motorized) + sum(self.non_motorized)

    def to_dict(self) -> dict[str, Any]:
        return {
            "motorized": list(self.motorized),
            "non_motorized": list(self.non_motorized),
            "timestamp_ms": self.timestamp_ms,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "QueueState":
        try:
            return cls(
                motorized=tuple(d["motorized"]),
                non_motorized=tuple(d["non_motorized"]),
                timestamp_ms=int(d.get("timestamp_ms", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing required field {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class SignalPlan:
    """One full cycle: an ordered list of (link, green seconds) phases.

    ``guidance_pad_s`` seconds are inserted before and after each green to
    absorb manual-guidance losses; ``inter_green_s`` is the clearance
    interval between consecutive phases.
    """

    phases: tuple[tuple[LinkId, int], ...]
    inter_green_s: int = 0
    guidance_pad_s: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "phases", tuple((int(l), int(g)) for l, g in self.phases)
        )
        if self.inter_green_s < 0:
            raise ConfigError("inter_green_s must be >= 0")
        if self.guidance_pad_s < 0:
            raise ConfigError("guidance_pad_s must be >= 0")

    @property
    def num_links(self) -> int:
        return len(self.phases)

    @property
    def greens(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.phases)

    @property
    def cycle_length_s(self) -> int:
        pads = 2 * self.guidance_pad_s * len(self.phases)
        return sum(self.greens) + pads + len(self.phases) * self.inter_green_s

    def service_time_s(self, link: LinkId) -> int:
        for lnk, g in self.phases:
            if lnk == link:
                return g + 2 * self.guidance_pad_s
        raise KeyError(f"link {link} not served by plan")

    def to_dict(self) -> dict[str, Any]:
        return {
            "phases": [[l, g] for l, g in self.phases],
            "inter_green_s": self.inter_green_s,
            "guidance_pad_s": self.guidance_pad_s,
            "cycle_length_s": self.cycle_length_s,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SignalPlan":
        try:
            return cls(
                phases=tuple((int(l), int(g)) for l, g in d["phases"]),
                inter_green_s=int(d.get("inter_green_s", 0)),
                guidance_pad_s=int(d.get("guidance_pad_s", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing required field {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class DetectionRecord:
    """Per-frame vehicle counts from one camera, four detection classes."""

    camera_id: LinkId
    frame_ts_ms: int
    motorized_in: int
    motorized_out: int = 0
    non_motorized_in: int = 0
    non_motorized_out: int = 0

    def __post_init__(self) -> None:
        counts = (
            self.motorized_in,
            self.motorized_out,
            self.non_motorized_in,
            self.non_motorized_out,
        )
        if any(c < 0 for c in counts):
            raise ConfigError("detection counts must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "camera_id": self.camera_id,
            "frame_ts_ms": self.frame_ts_ms,
            "motorized_in": self.motorized_in,
            "motorized_out": self.motorized_out,
            "non_motorized_in": self.non_motorized_in,
            "non_motorized_out": self.non_motorized_out,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "DetectionRecord":
        try:
            return cls(
                camera_id=int(d["camera_id"]),
                frame_ts_ms=int(d["frame_ts_ms"]),
                motorized_in=int(d["motorized_in"]),
                motorized_out=int(d.get("motorized_out", 0)),
                non_motorized_in=int(d.get("non_motorized_in", 0)),
                non_motorized_out=int(d.get("non_motorized_out", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing required field {exc.args[0]!r}") from exc


@dataclass(frozen=True, order=True)
class ObjectiveVector:
    """(f1, f2) pair: residual congestion in vehicles, total red seconds."""

    f1: float
    f2: float

    def __post_init__(self) -> None:
        if self.f1 < 0 or self.f2 < 0:
            raise ConfigError("objective values must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {"f1": self.f1, "f2": self.f2}


def load_intersection_config(path: str | Path) -> IntersectionConfig:
    """Load and validate an intersection config JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return IntersectionConfig.from_dict(raw)


def validate_plan(plan: SignalPlan, cfg: IntersectionConfig) -> list[str]:
    """Return all invariant violations of ``plan`` (empty list means valid)."""
    violations: list[str] = []
    served = [l for l, _ in plan.phases]
    for i in range(cfg.num_links):
        n = served.count(i)
        if n == 0:
            violations.append(f"link {i} unserved")
        elif n > 1:
            violations.append(f"link {i} served {n} times")
    for l in served:
        if l < 0 or l >= cfg.num_links:
            violations.append(f"unknown link {l}")
    for l, g in plan.phases:
        if not (cfg.min_green_s <= g <= cfg.max_green_s):
            violations.append(
                f"green bound: link {l} green {g}s outside "
                f"[{cfg.min_green_s}, {cfg.max_green_s}]"
            )
    if plan.cycle_length_s <= 0:
        violations.append("cycle length must be positive")
    return violations


def dump_json(obj: Any, path: str | Path) -> None:
    """Write canonical JSON (sorted keys, stable separators, trailing \\n)."""
    Path(path).write_text(canonical_json(obj) + "\n")


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
