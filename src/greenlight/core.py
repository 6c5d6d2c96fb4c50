"""Domain data model, configuration loading, and JSON serialization.

All types here are immutable value objects; they can be shared freely
between threads.

Every field of every config and input section is declared once, in one
table: its kind, bounds and default. A ``Section`` dataclass keeps its
table in ``setting`` field metadata. Camera, detector and controller
entries stay JSON objects, read by the ``table`` of the class they build.
``load_section`` reads a section from JSON (object, unknown and missing
keys, tagged entries), ``check`` checks and converts the field values
(each ``Section`` runs it from ``__post_init__``, so direct construction
is checked too), ``dump`` writes the fields back out, and ``read_json``
is the one reader of config files.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import Any, Optional

# A link is one approach road feeding the intersection; links are addressed
# by their integer index in [0, num_links).
LinkId = int

# The kind of a number kept as written: a JSON 1 stays an int, 0.5 a float.
REAL = numbers.Real

# The ceiling of the pipeline's millisecond settings: an hour, as
# ``max_green_s`` has. Far larger ones overflow the run's clock or a wait.
HOUR_MS = 3_600_000

# The ceiling of a per-frame vehicle count. The emulated detector thins a
# count one vehicle at a time: ~15 ms per detection at this ceiling with a
# miss rate (2-CPU x86-64 host), ~41 h at 10**12.
MAX_COUNT = 100_000


class ConfigError(ValueError):
    """Raised when a config or input file fails validation."""


@dataclass(frozen=True, eq=False)
class ListOf:
    """A JSON list of ``kind`` items, loaded as a tuple; ``size`` fixes
    its length, ``nonempty`` forbids ``[]``, ``entry`` names one item in
    messages ("camera 0")."""

    kind: Any
    size: Optional[int] = None
    nonempty: bool = False
    entry: str = ""


@dataclass(frozen=True, eq=False)
class OneOf:
    """An object whose ``tag`` key (``default`` when absent) picks the
    table of its other keys from ``variants``."""

    tag: str
    variants: dict
    default: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Spec:
    """One field: its kind and bounds.

    ``kind`` is ``int`` (an integral number; ``40.0`` loads as 40),
    ``float`` (a number, loaded as a float), ``REAL``, ``str``, a tuple of
    allowed strings, a ``ListOf``, a ``Section`` class, a dict table of
    ``Spec``, a ``OneOf``, or None for any JSON value. Bools, strings and
    non-finite numbers are not numbers. Bounds (``low`` <= value <=
    ``high``, value > ``above``) hold for a number and for each number in
    a list. ``error`` replaces the message of any failure of the field
    itself, a missing key included. With ``path``, a string is a file path,
    taken from the config file's directory when relative; for a section
    kind it names a JSON file that holds the section.
    """

    kind: Any
    low: Any = None
    high: Any = None
    above: Any = None
    required: bool = False
    nullable: bool = False
    error: Optional[str] = None
    path: bool = False


def setting(kind: Any, default: Any = MISSING, *, factory: Any = MISSING,
            **spec: Any) -> Any:
    """A ``Section`` field declared by its ``Spec``: required unless it has
    a ``default`` (or a ``factory`` for mutable ones); a None default
    admits null."""
    return field(default=default, default_factory=factory, metadata={
        "spec": Spec(kind, nullable=default is None, **spec)})


def table(section: Any) -> dict:
    """The field table (name -> ``Spec``) of a ``Section`` class or dict."""
    return section if isinstance(section, dict) else _fields_table(section)


@cache
def _fields_table(cls: type) -> dict:
    return {
        f.name: replace(f.metadata["spec"], required=(
            f.default is MISSING and f.default_factory is MISSING))
        for f in fields(cls) if "spec" in f.metadata
    }


class Section:
    """Mixin for a dataclass whose fields are ``setting``s: checked on
    construction, read by ``from_dict``/``load`` and written by ``to_dict``.
    ``NAME`` names the section in messages."""

    NAME = ""

    def __post_init__(self) -> None:
        check(self)

    @classmethod
    def from_dict(cls, d: Any, base_dir: Optional[Path] = None):
        """Load from a JSON value; a relative file path in it is taken
        from ``base_dir``."""
        return load_section(cls, d, cls.NAME, base_dir=base_dir)

    @classmethod
    def load(cls, path: str | Path):
        """Load from a JSON file."""
        return cls.from_dict(read_json(path), base_dir=Path(path).parent)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: dump(getattr(self, f.name)) for f in fields(self)}


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; any failure to read or parse it is a
    ``ConfigError``."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None


def _fail(spec: Spec, message: str):
    raise ConfigError(spec.error or message)


_NUMBERS = (int, float, REAL)
_PLURALS = {None: "values", int: "integers", float: "numbers", REAL: "numbers",
            str: "strings"}


def _is_section(kind: Any) -> bool:
    return isinstance(kind, (dict, OneOf)) or (
        isinstance(kind, type) and issubclass(kind, Section))


def _convert(spec: Spec, kind: Any, key: str, v: Any) -> Any:
    """``v`` checked against ``kind`` and the bounds of ``spec``."""
    if kind in _NUMBERS:
        return _number(spec, kind, key, v)
    if kind is None:
        return v
    if isinstance(kind, ListOf):
        if not isinstance(v, (list, tuple)) or kind.size not in (None, len(v)):
            size = "" if kind.size is None else f"{kind.size} "
            plural = _PLURALS.get(kind.kind, "lists" if isinstance(
                kind.kind, ListOf) else "objects")
            _fail(spec, f"{key} must be a list of {size}{plural}, got {v!r}")
        if kind.nonempty and not v:
            _fail(spec, f"{key} must list at least one {kind.entry}")
        item = kind.kind
        if item in _NUMBERS:
            return tuple([_number(spec, item, key, x) for x in v])
        if _is_section(item):
            return tuple(load_section(item, x, f"{kind.entry} {i}", kind.entry,
                                      entry=True) for i, x in enumerate(v))
        return tuple([_convert(spec, item, key, x) for x in v])
    if kind is str or isinstance(kind, tuple):
        if not isinstance(v, str) or (kind is not str and v not in kind):
            _fail(spec, f"{key} must be a string, got {v!r}" if kind is str else
                  f"{key} must be one of {', '.join(kind)}, got {v!r}")
        return v
    return load_section(kind, v, key)


def _number(spec: Spec, kind: Any, key: str, v: Any) -> Any:
    if kind is int and type(v) is int:  # the common case, already final
        pass
    elif isinstance(v, bool) or not isinstance(v, numbers.Real):
        _fail(spec, f"{key} must be a number, got {v!r}")
    elif kind is int:
        if not isinstance(v, numbers.Integral) and not (
                math.isfinite(v) and float(v).is_integer()):
            _fail(spec, f"{key} must be an integer, got {v!r}")
        v = int(v)
    else:
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond any float
            finite = False
        if not finite:
            _fail(spec, f"{key} must be a finite number, got {v!r}")
        if kind is float:
            v = float(v)
    low, high = spec.low, spec.high
    if (low is not None and v < low) or (high is not None and v > high):
        _fail(spec, f"{key} must be >= {low}, got {v!r}" if high is None
              else f"{key} must be <= {high}, got {v!r}" if low is None
              else f"{key} must be in [{low}, {high}], got {v!r}")
    if spec.above is not None and v <= spec.above:
        _fail(spec, f"{key} must be > {spec.above}, got {v!r}")
    return v


def _value(spec: Spec, key: str, v: Any) -> Any:
    if v is None and spec.nullable:
        return None
    if spec.path and isinstance(v, str) and _is_section(spec.kind):
        v = read_json(v)
    return _convert(spec, spec.kind, key, v)


def check(obj: Section) -> None:
    """Check and convert every ``setting`` field of ``obj`` in place."""
    for key, spec in table(type(obj)).items():
        object.__setattr__(obj, key, _value(spec, key, getattr(obj, key)))


def load_section(section: Any, d: Any, label: str, noun: str = "", *,
                 entry: bool = False, base_dir: Optional[Path] = None) -> Any:
    """Read one section (a ``Section`` class, a dict table or a ``OneOf``)
    from the JSON value ``d``: a ``Section`` instance, or a dict of the keys
    given for a dict table. An instance of a ``Section`` class is taken
    as it is.

    ``label`` names the section in messages ("options", "camera 0"), and
    ``noun`` the kind of entry; an error inside a list entry (``entry``) is
    prefixed by its label. A relative file path is taken from ``base_dir``.
    """
    if isinstance(section, type) and isinstance(d, section):
        return d
    if not isinstance(d, dict):
        raise ConfigError(f"{label} must be a JSON object, got {d!r}")
    prefix = f"{label}: " if entry else ""
    if isinstance(section, OneOf):
        tag = d.get(section.tag, section.default)
        if not isinstance(tag, str) or tag not in section.variants:
            raise ConfigError(f"{prefix}unknown type {tag!r}")
        variant = {section.tag: Spec(str), **section.variants[tag]}
        return load_section(variant, d, label, f"{tag} {noun}", entry=entry,
                            base_dir=base_dir)
    specs = table(section)
    unknown = sorted((k for k in d if k not in specs), key=str)
    if unknown:
        raise ConfigError(f"unknown {label} key {unknown[0]!r}")
    needs = [k for k, s in specs.items() if s.required]
    missing = [k for k in needs if k not in d]
    if missing:
        *rest, last = map(repr, needs)
        keys = f"{', '.join(rest)} and {last}" if rest else last
        name = getattr(section, "NAME", "") or noun or label
        raise ConfigError(prefix + (specs[missing[0]].error or f"{name} needs {keys}"))
    if base_dir is not None:
        d = _from_base(specs, d, base_dir)
    try:
        if isinstance(section, dict):
            return {k: _value(specs[k], k, v) for k, v in d.items()}
        return section(**d)
    except ConfigError as exc:
        if entry:
            raise ConfigError(prefix + str(exc)) from None
        raise


def _from_base(specs: dict, d: dict, base_dir: Path) -> dict:
    """``d`` with each relative file path its table declares, those in
    tagged list entries included, taken from ``base_dir``."""
    out = dict(d)
    for k, v in d.items():
        spec = specs.get(k)  # an unknown key in a list entry is caught later
        if spec is None:
            continue
        if spec.path and isinstance(v, str):
            out[k] = str(Path(base_dir, v))
        elif (isinstance(spec.kind, ListOf) and isinstance(v, list)
              and isinstance(spec.kind.kind, OneOf)):
            out[k] = [_from_base(_entry_table(spec.kind.kind, x), x, base_dir)
                      if isinstance(x, dict) else x for x in v]
    return out


def _entry_table(item: OneOf, d: dict) -> dict:
    """The table of list entry ``d``; an unknown tag gives an empty one,
    which the entry's own load rejects."""
    tag = d.get(item.tag, item.default)
    return item.variants.get(tag, {}) if isinstance(tag, str) else {}


def dump(value: Any) -> Any:
    """``value`` as JSON data: a section by its ``to_dict``, a list item by
    item."""
    if isinstance(value, Section):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [dump(v) for v in value]
    return value


_FINITE = Spec(REAL)


def is_number(v: Any) -> bool:
    """A finite number, as the ``REAL`` kind takes it."""
    try:
        _number(_FINITE, REAL, "", v)
    except ConfigError:
        return False
    return True


@dataclass(frozen=True)
class IntersectionConfig(Section):
    NAME = "intersection"

    # Default names are made one per link, so the count has a ceiling.
    num_links: int = setting(int, low=2, high=100)
    link_names: tuple[str, ...] = setting(ListOf(str), ())
    min_green_s: int = setting(int, 10, low=1)
    # The optimizer keeps max_green_s + 1 residuals per link: an hour caps it.
    max_green_s: int = setting(int, 60, low=1, high=3600)
    inter_green_s: int = setting(int, 3, low=0)
    # Vehicles/second. The simulator counts in int64: at the ceiling, a
    # day of discharge stays exact.
    sat_flow_motorized: float = setting(REAL, 0.5, above=0, high=MAX_COUNT)
    sat_flow_non_motorized: float = setting(REAL, 0.25, above=0, high=MAX_COUNT)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.link_names:
            object.__setattr__(
                self, "link_names",
                tuple(f"link-{i}" for i in range(self.num_links)),
            )
        if len(self.link_names) != self.num_links:
            raise ConfigError("link_names must have exactly num_links entries")
        if self.max_green_s < self.min_green_s:
            raise ConfigError("max_green_s must be >= min_green_s")


@dataclass(frozen=True)
class QueueState(Section):
    """Per-link waiting-vehicle counts, split motorized / non-motorized."""

    NAME = "queue"

    motorized: tuple[int, ...] = setting(ListOf(int), low=0)
    non_motorized: tuple[int, ...] = setting(ListOf(int), low=0)
    timestamp_ms: int = setting(int, 0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.motorized) != len(self.non_motorized):
            raise ConfigError("motorized and non_motorized must have equal length")

    @property
    def num_links(self) -> int:
        return len(self.motorized)

    def total(self) -> int:
        return sum(self.motorized) + sum(self.non_motorized)


@dataclass(frozen=True)
class SignalPlan(Section):
    """One full cycle: an ordered list of (link, green seconds) phases.

    ``guidance_pad_s`` seconds are inserted before and after each green to
    absorb manual-guidance losses; ``inter_green_s`` is the clearance
    interval between consecutive phases.
    """

    NAME = "plan"

    phases: tuple[tuple[LinkId, int], ...] = setting(ListOf(ListOf(int, size=2)))
    inter_green_s: int = setting(int, 0, low=0)
    guidance_pad_s: int = setting(int, 0, low=0)
    # Derived from the fields above; a given value must agree with them.
    cycle_length_s: Optional[int] = setting(int, None)

    def __post_init__(self) -> None:
        super().__post_init__()
        n = len(self.phases)
        cycle = sum(self.greens) + n * (2 * self.guidance_pad_s + self.inter_green_s)
        if self.cycle_length_s not in (None, cycle):
            raise ConfigError(f"cycle_length_s must be {cycle} for these phases, "
                              f"got {self.cycle_length_s}")
        object.__setattr__(self, "cycle_length_s", cycle)

    @property
    def num_links(self) -> int:
        return len(self.phases)

    @property
    def greens(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.phases)


@dataclass(frozen=True)
class DetectionRecord(Section):
    """Per-frame vehicle counts from one camera, four detection classes."""

    NAME = "detection record"

    camera_id: LinkId = setting(int, low=0)
    frame_ts_ms: int = setting(int, low=0)
    motorized_in: int = setting(int, low=0, high=MAX_COUNT)
    motorized_out: int = setting(int, 0, low=0, high=MAX_COUNT)
    non_motorized_in: int = setting(int, 0, low=0, high=MAX_COUNT)
    non_motorized_out: int = setting(int, 0, low=0, high=MAX_COUNT)


@dataclass(frozen=True, order=True)
class ObjectiveVector(Section):
    """(f1, f2) pair: residual congestion in vehicles, total red seconds."""

    NAME = "objectives"

    f1: float = setting(REAL, low=0)
    f2: float = setting(REAL, low=0)


def load_intersection_config(path: str | Path) -> IntersectionConfig:
    """Load and validate an intersection config JSON file."""
    return IntersectionConfig.load(path)


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
