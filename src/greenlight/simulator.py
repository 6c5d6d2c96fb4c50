"""Discrete-time (1 s step) intersection microsimulator.

Executes signal plans against seeded Poisson arrivals, supports fixed-time
and adaptive (optimizer-driven) controllers, emergency phase reordering,
guidance padding, observation noise, sensing latency, and service
blackouts. Runs are bit-reproducible from their seeds.

A run draws all its arrivals in one ``poisson(rates, size=(horizon, L, 2))``
call, which yields the same stream as one draw per second, link and class,
and marks blackout seconds in a mask before the first step. It then
advances a stretch of constant signal state at a time. Its trace
(``SimTrace``) is five per-second columns: queues, arrivals and discharge
per link, the served link, and the phase state.

numpy loads on the first ``simulate`` (or ``compare_controllers``) call,
not on import: ``cli`` imports this module, and ``optimize`` and
``pipeline`` never run a simulation, so they start without it.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from . import nsga2, objectives
from .core import (
    MAX_COUNT,
    ConfigError,
    IntersectionConfig,
    ListOf,
    OneOf,
    QueueState,
    Section,
    SignalPlan,
    Spec,
    is_number,
    setting,
    table,
    validate_plan,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ArrivalModel(Section):
    """Per-link, per-class Poisson arrival rates in vehicles/second."""

    NAME = "demand"

    motorized_rates: tuple[float, ...] = setting(ListOf(None))
    non_motorized_rates: tuple[float, ...] = setting(ListOf(None))
    rng_seed: int = setting(int, 0, low=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.motorized_rates) != len(self.non_motorized_rates):
            raise ConfigError("rate vectors must have equal length")
        if not all(
            is_number(r) and 0 <= r <= MAX_COUNT
            for r in self.motorized_rates + self.non_motorized_rates
        ):
            raise ConfigError(
                f"arrival rates must be numbers >= 0 and <= {MAX_COUNT}")

    @property
    def num_links(self) -> int:
        return len(self.motorized_rates)


@dataclass(frozen=True)
class EmergencyEvent(Section):
    NAME = "emergency event"

    time_s: int = setting(int)
    link: int = setting(int)


@dataclass(eq=False)
class FixedTimeController(Section):
    """Returns the same cycle every time; the manual-control stand-in.
    Its ``setting`` fields are a fixed entry's keys."""

    greens: tuple[int, ...] = setting(ListOf(int))
    intersection: IntersectionConfig
    guidance_pad_s: int = 0
    order: Optional[tuple[int, ...]] = setting(ListOf(int), None)

    def __post_init__(self) -> None:
        super().__post_init__()
        links = list(range(self.intersection.num_links))
        order = links if self.order is None else self.order
        if len(self.greens) != len(links):
            raise ConfigError("fixed controller needs one green per link")
        if sorted(order) != links:
            raise ConfigError("fixed controller order must list every link once")
        self._plan = SignalPlan(tuple((l, self.greens[l]) for l in order),
                                self.intersection.inter_green_s,
                                self.guidance_pad_s)

    def next_plan(self, observed: QueueState) -> SignalPlan:
        return self._plan


@dataclass(eq=False)
class AdaptiveController(nsga2.Planner):
    """Re-optimizes the cycle from the observed queue before each cycle.
    Its ``setting`` fields are an adaptive entry's keys; the intersection
    and the pad come from the scenario, so they are plain fields here."""

    intersection: IntersectionConfig
    guidance_pad_s: int = 0

    def next_plan(self, observed: QueueState) -> SignalPlan:
        return self(observed)[1]


# The one map of controller types. A scenario's controller entries stay
# JSON objects whose keys are the ``setting`` fields of the class built.
CONTROLLERS = {"fixed": FixedTimeController, "adaptive": AdaptiveController}
CONTROLLER = OneOf("type", {kind: {"name": Spec(str), **table(cls)}
                            for kind, cls in CONTROLLERS.items()})


@dataclass
class SimMetrics(Section):
    max_waiting_per_link: list[int]
    avg_waiting_per_link: list[float]
    overall_max: int
    overall_avg: float
    throughput_total: int
    time_horizon_s: int


@dataclass
class SimOptions(Section):
    NAME = "options"

    # Detection probability per vehicle.
    observation_noise_p: float = setting(float, 1.0, low=0, high=1)
    guidance_pad_s: int = setting(int, 0, low=0)
    sensing_latency_s: int = setting(int, 2, low=0)
    emergency_events: tuple[EmergencyEvent, ...] = setting(
        ListOf(EmergencyEvent, entry="emergency event"), ())
    blackouts: tuple[tuple[float, float], ...] = setting(ListOf(None), ())  # [start, end)
    initial_motorized: Optional[tuple[int, ...]] = setting(ListOf(int), None, low=0)
    initial_non_motorized: Optional[tuple[int, ...]] = setting(ListOf(int), None, low=0)
    noise_seed: int = setting(int, 1, low=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        for b in self.blackouts:
            if not (
                isinstance(b, (list, tuple)) and len(b) == 2
                and all(is_number(v) for v in b) and b[0] <= b[1]
            ):
                raise ConfigError(
                    f"blackout must be [start, end] numbers with start <= end, "
                    f"got {b!r}"
                )
        self.blackouts = tuple(tuple(b) for b in self.blackouts)
        for key in ("initial_motorized", "initial_non_motorized"):
            top = max(getattr(self, key) or (0,))
            if top > MAX_COUNT:
                raise ConfigError(f"{key} must be <= {MAX_COUNT}, got {top}")


@dataclass
class Scenario(Section):
    """A ``simulate`` input: intersection (inline or a file path), demand,
    horizon, seeds, options and controller entries."""

    NAME = "scenario"

    intersection: IntersectionConfig = setting(IntersectionConfig, path=True)
    demand: ArrivalModel = setting(ArrivalModel)
    # A run holds about five (horizon, L, 2) int64 arrays: a day caps it.
    horizon_s: int = setting(int, low=1, high=86400)
    controllers: tuple[dict, ...] = setting(
        ListOf(CONTROLLER, nonempty=True, entry="controller"))
    seeds: tuple[int, ...] = setting(
        ListOf(int, nonempty=True, entry="seed"), (0,), low=0)
    options: SimOptions = setting(SimOptions, factory=SimOptions)

    @classmethod
    def from_dict(cls, d, base_dir=None) -> Scenario:
        scenario = super().from_dict(d, base_dir)
        # Each run draws its arrivals from one of ``seeds``, so a demand
        # seed would be read and then ignored.
        if "rng_seed" in d["demand"]:
            raise ConfigError("demand.rng_seed is not used: simulate draws "
                              "arrivals from the scenario's seeds or --seed")
        return scenario

    def __post_init__(self) -> None:
        super().__post_init__()
        names = [spec.setdefault("name", f"controller_{i}")
                 for i, spec in enumerate(self.controllers)]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"duplicate controller name {name!r}")


GREEN, PAD, INTER_GREEN = 0, 1, 2
PHASE_STATES = ("green", "pad", "inter_green")  # indexed by the codes above


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays
class SimTrace:
    """The per-second columns of one run.

    ``queues``, ``arrivals`` and ``discharged`` are ``(horizon, L)`` int64
    arrays (motorized + non-motorized); ``active_link`` (-1 when no link is
    served) and ``phase`` (a code into ``PHASE_STATES``) are ``(horizon,)``
    arrays.
    """

    queues: np.ndarray
    arrivals: np.ndarray
    discharged: np.ndarray
    active_link: np.ndarray
    phase: np.ndarray


class _Cycle:
    """The links a plan's cycle still serves, in serving order.

    ``order`` lists the leads carried over from the last cycle, then the
    plan's other links in plan order; ``order[active]`` is being served.
    Emergencies are served after the active link in arrival order (see
    ``serve``); durations come from the plan and never change.
    """

    def __init__(self, plan: SignalPlan, leads: Sequence[int]):
        self.plan = plan
        self.order = [*leads, *(l for l, _ in plan.phases if l not in leads)]
        self.active = 0
        # order[active + 1:urgent_end] were moved up by emergencies, or
        # lead the cycle.
        self.urgent_end = len(leads)
        self.leads: list[int] = []  # links to lead the next cycle, in order
        self.greens = dict(plan.phases)

    def serve(self, link: int) -> None:
        """Serve an emergency on ``link`` after the links already due.

        A link still to come moves up behind the links earlier emergencies
        moved up. A link already served cuts the cycle behind those links
        and leads the next cycle, after the leads named before it.
        """
        at = max(self.active + 1, self.urgent_end)
        if link in self.order[self.active:at] or link in self.leads:
            return  # the active link, or one already due after it
        if link not in self.order[at:]:  # served already, or behind a cut
            del self.order[at:]
            self.leads.append(link)
        else:
            self.order.remove(link)
            self.order.insert(at, link)
            self.urgent_end = at + 1

    def phase(self, t: int) -> list[tuple[int, int, int]]:
        """The active link's segments of constant state from second ``t``,
        last first: (end second, state code, shown link)."""
        link = self.order[self.active]
        pad, clearance = self.plan.guidance_pad_s, self.plan.inter_green_s
        segments = []
        for n, state, shown in ((pad, PAD, link), (self.greens[link], GREEN, link),
                                (pad, PAD, link), (clearance, INTER_GREEN, -1)):
            if n > 0:
                t += n
                segments.append((t, state, shown))
        return segments[::-1]


def simulate(
    cfg: IntersectionConfig,
    demand: ArrivalModel,
    controller,
    horizon_s: int,
    options: Optional[SimOptions] = None,
) -> tuple[SimMetrics, SimTrace]:
    """Run a second-by-second simulation of one intersection.

    Each second: arrivals accrue on every link, then the currently green
    link discharges at the class saturation rates. The controller is
    consulted once per completed cycle with the queue state observed
    ``sensing_latency_s`` earlier.

    The run advances one stretch of constant signal state at a time. A
    phase is laid out as segments when it starts (pad, green, pad and
    clearance, each at least a second long), and a stretch ends where its
    segment ends, at a blackout edge during a green, at an emergency event
    or at the horizon. Inside a stretch every link but the
    served one adds up its arrivals; the served link of a lit green follows
    Lindley's recursion q_t = max(0, q_{t-1} + a_t - c_t).
    """
    import numpy as np

    if options is None:
        options = SimOptions()
    L = cfg.num_links
    if demand.num_links != L:
        raise ConfigError("demand rates must cover every link")
    if horizon_s < 1:
        raise ConfigError("horizon must be >= 1 s")
    if not all(0 <= e.link < L for e in options.emergency_events):
        raise ConfigError(f"emergency events must name a link in [0, {L})")

    arrival_rng = np.random.default_rng(demand.rng_seed)
    noise_rng = np.random.default_rng(options.noise_seed)

    initial = tuple((0,) * L if q is None else q for q in
                    (options.initial_motorized, options.initial_non_motorized))
    if len(initial[0]) != L or len(initial[1]) != L:
        raise ConfigError("initial queues must have one entry per link")

    # Every arrival up front: numpy draws an array's variates in C order
    # from the same stream, so the [t][link] = (motorized, non-motorized)
    # layout replays a per-second, per-link, per-class draw loop exactly.
    rates = np.array([demand.motorized_rates, demand.non_motorized_rates]).T
    arrivals = arrival_rng.poisson(rates, size=(horizon_s, L, 2))
    # reached[k]: initial queue plus every arrival of seconds [0, k), per
    # link and class; the queue after k seconds is that minus discharge.
    reached = np.empty((horizon_s + 1, L, 2), dtype=np.int64)
    reached[0] = np.array(initial, dtype=np.int64).T
    np.cumsum(arrivals, axis=0, out=reached[1:])
    reached[1:] += reached[0]
    discharged = np.zeros((horizon_s, L, 2), dtype=np.int64)
    served = np.zeros((L, 2), dtype=np.int64)  # discharged before second t
    active = np.empty(horizon_s, dtype=np.int64)
    phase = np.empty(horizon_s, dtype=np.int8)

    seconds = np.arange(horizon_s)
    dark = np.zeros(horizon_s, dtype=bool)
    for s, e in options.blackouts:
        dark |= (s <= seconds) & (seconds < e)
    dark_edges = (np.flatnonzero(dark[1:] != dark[:-1]) + 1).tolist()
    dark = dark.tolist()

    # Fractional saturation flows discharge on the optimizer's floor(rate*k)
    # table so a full green matches its discharge model exactly:
    # capacity[k] is what the (k+1)-th lit green second of a phase may
    # discharge, per class.
    most = min(cfg.max_green_s, horizon_s)
    lattice = np.array(objectives.discharge_table(
        cfg.sat_flow_motorized, cfg.sat_flow_non_motorized, cfg.max_green_s,
    )[:most + 1], dtype=np.int64)
    capacity = lattice[1:] - lattice[:-1]

    def observe(t: int) -> QueueState:
        past = max(0, t - options.sensing_latency_s)
        m, nm = (reached[past] - served + discharged[past:t].sum(axis=0)).T.tolist()
        p = options.observation_noise_p
        if p >= 1.0:
            om, onm = m, nm
        else:
            om = [int(noise_rng.binomial(c, p)) for c in m]
            onm = [int(noise_rng.binomial(c, p)) for c in nm]
        return QueueState(motorized=tuple(om), non_motorized=tuple(onm),
                          timestamp_ms=t * 1000)

    def new_cycle(t: int, leads: Sequence[int] = ()) -> _Cycle:
        plan = controller.next_plan(observe(t))
        violations = validate_plan(plan, cfg)
        if violations:
            raise ConfigError(
                "controller produced an invalid plan: " + "; ".join(violations)
            )
        return _Cycle(plan, leads)

    events = sorted(options.emergency_events, key=lambda e: e.time_s)
    next_event = 0
    cycle = new_cycle(0)
    segments = cycle.phase(0)
    green_elapsed = 0  # lit green seconds of the active phase so far
    t = 0
    while t < horizon_s:
        if not segments:  # the active phase is over: start the next one
            cycle.active += 1
            if cycle.active == len(cycle.order):
                cycle = new_cycle(t, cycle.leads)
            segments = cycle.phase(t)
            green_elapsed = 0
        while next_event < len(events) and events[next_event].time_s <= t:
            cycle.serve(events[next_event].link)
            next_event += 1

        end, state, link = segments[-1]
        stop = min(end, horizon_s)
        if next_event < len(events):
            stop = min(stop, events[next_event].time_s)
        lit = False
        if state == GREEN:
            lit = not dark[t]
            edge = bisect.bisect_right(dark_edges, t)
            if edge < len(dark_edges):
                stop = min(stop, dark_edges[edge])
        n = stop - t
        active[t:stop] = link
        phase[t:stop] = state

        if lit:
            # Lindley's recursion in closed form: with w the running sum of
            # arrivals minus capacity from the queue at t, the queue is
            # w - low, where low = min(0, running minimum of w) is the
            # capacity left idle so far (as a negative number).
            a = arrivals[t:stop, link]
            cap = capacity[green_elapsed:green_elapsed + n]
            w = np.cumsum(a - cap, axis=0)
            w += reached[t, link] - served[link]
            low = np.minimum.accumulate(np.minimum(w, 0), axis=0)
            out = cap + low
            out[1:] -= low[:-1]
            discharged[t:stop, link] = out
            served[link] += out.sum(axis=0)
            green_elapsed += n

        t = stop
        if t == end:
            segments.pop()

    queues = (reached[1:] - np.cumsum(discharged, axis=0)).sum(axis=2)
    metrics = SimMetrics(
        max_waiting_per_link=[int(v) for v in queues.max(axis=0)],
        avg_waiting_per_link=[float(v) for v in queues.mean(axis=0)],
        overall_max=int(queues.max()),
        overall_avg=float(queues.mean()),
        throughput_total=int(served.sum()),
        time_horizon_s=horizon_s,
    )
    trace = SimTrace(queues, arrivals.sum(axis=2), discharged.sum(axis=2),
                     active, phase)
    return metrics, trace


def compare_controllers(
    cfg: IntersectionConfig,
    demand: ArrivalModel,
    controllers: dict[str, object],
    horizon_s: int,
    seeds: Sequence[int],
    options: Optional[SimOptions] = None,
) -> dict:
    """Run every controller on identical arrival sequences, per seed.

    Returns mean metrics per controller plus percentage deltas of each
    controller against the first (baseline) one.
    """
    import numpy as np

    if len(controllers) < 2:
        raise ValueError("need at least two controllers to compare")
    if not seeds:
        raise ValueError("need at least one seed")

    per_ctrl: dict[str, list[SimMetrics]] = {name: [] for name in controllers}
    for seed in seeds:
        paired = replace(demand, rng_seed=seed)
        for name, ctrl in controllers.items():
            m, _ = simulate(cfg, paired, ctrl, horizon_s, options)
            per_ctrl[name].append(m)

    names = list(controllers)
    report: dict = {"seeds": list(seeds), "horizon_s": horizon_s, "controllers": {}}
    means: dict[str, dict[str, float]] = {}
    for name in names:
        ms = per_ctrl[name]
        means[name] = {
            "overall_avg": float(np.mean([m.overall_avg for m in ms])),
            "overall_max": float(np.mean([m.overall_max for m in ms])),
            "throughput_total": float(np.mean([m.throughput_total for m in ms])),
        }
        report["controllers"][name] = {
            "mean": means[name],
            "per_seed": [m.to_dict() for m in ms],
        }

    base = names[0]
    for name in names[1:]:
        deltas = {}
        for key in ("overall_avg", "overall_max"):
            b = means[base][key]
            deltas[key + "_pct_change"] = (
                0.0 if b == 0 else 100.0 * (means[name][key] - b) / b
            )
        wins = sum(
            1
            for mb, mn in zip(per_ctrl[base], per_ctrl[name])
            if mn.overall_avg <= mb.overall_avg
        )
        deltas["seeds_not_worse_than_baseline"] = wins
        report["controllers"][name]["vs_" + base] = deltas
    return report
