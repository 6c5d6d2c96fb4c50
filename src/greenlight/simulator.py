"""Discrete-time (1 s step) intersection microsimulator.

Executes signal plans against seeded Poisson arrivals, supports fixed-time
and adaptive (optimizer-driven) controllers, emergency phase reordering,
guidance padding, observation noise, sensing latency, and service
blackouts. Runs are bit-reproducible from their seeds.

A run draws all its arrivals in one ``poisson(rates, size=(horizon, L, 2))``
call, which yields the same stream as one draw per second, link and class,
and marks blackout seconds in a mask before the first step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nsga2, objectives
from .core import (
    ConfigError,
    IntersectionConfig,
    QueueState,
    SignalPlan,
    check_fields,
    validate_plan,
)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class ArrivalModel:
    """Per-link, per-class Poisson arrival rates in vehicles/second."""

    motorized_rates: tuple[float, ...]
    non_motorized_rates: tuple[float, ...]
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "motorized_rates", tuple(self.motorized_rates))
        object.__setattr__(
            self, "non_motorized_rates", tuple(self.non_motorized_rates)
        )
        if len(self.motorized_rates) != len(self.non_motorized_rates):
            raise ConfigError("rate vectors must have equal length")
        if not all(
            _is_number(r) and r >= 0
            for r in self.motorized_rates + self.non_motorized_rates
        ):
            raise ConfigError("arrival rates must be numbers >= 0")

    @property
    def num_links(self) -> int:
        return len(self.motorized_rates)

    @classmethod
    def from_dict(cls, d: dict) -> "ArrivalModel":
        if not isinstance(d, dict):
            raise ConfigError(f"demand must be a JSON object, got {d!r}")
        for key in ("motorized_rates", "non_motorized_rates"):
            if key not in d:
                raise ConfigError(f"demand needs {key!r}")
        return cls(
            motorized_rates=tuple(d["motorized_rates"]),
            non_motorized_rates=tuple(d["non_motorized_rates"]),
            rng_seed=int(d.get("rng_seed", 0)),
        )


@dataclass(frozen=True)
class EmergencyEvent:
    time_s: int
    link: int


class FixedTimeController:
    """Returns the same cycle every time; the manual-control stand-in."""

    name = "fixed"

    def __init__(self, greens: Sequence[int], cfg: IntersectionConfig,
                 guidance_pad_s: int = 0, order: Optional[Sequence[int]] = None):
        order = list(order) if order is not None else list(range(cfg.num_links))
        if len(greens) != cfg.num_links:
            raise ConfigError("fixed controller needs one green per link")
        if sorted(order) != list(range(cfg.num_links)):
            raise ConfigError("fixed controller order must list every link once")
        self._plan = SignalPlan(
            phases=tuple((l, int(greens[l])) for l in order),
            inter_green_s=cfg.inter_green_s,
            guidance_pad_s=guidance_pad_s,
        )

    def next_plan(self, observed: QueueState) -> SignalPlan:
        return self._plan


class AdaptiveController:
    """Re-optimizes the cycle from the observed queue before each cycle."""

    name = "adaptive"

    def __init__(self, cfg: IntersectionConfig, params: nsga2.OptimizerParams,
                 policy: str = "knee", guidance_pad_s: int = 0,
                 weights: tuple[float, float] = (0.5, 0.5)):
        self._cfg = cfg
        self._params = params
        self._policy = policy
        self._pad = guidance_pad_s
        self._weights = weights
        # Light queues that clear at min green repeat one objective map.
        self._fronts: nsga2.FrontMemo = {}

    def next_plan(self, observed: QueueState) -> SignalPlan:
        front = nsga2.run(observed, self._cfg, self._params,
                          guidance_pad_s=self._pad, memo=self._fronts)
        return nsga2.select_operating_point(
            front, self._policy, self._cfg,
            guidance_pad_s=self._pad, weights=self._weights,
        )


@dataclass
class SimMetrics:
    max_waiting_per_link: list[int]
    avg_waiting_per_link: list[float]
    overall_max: int
    overall_avg: float
    throughput_total: int
    time_horizon_s: int

    def to_dict(self) -> dict:
        return {
            "max_waiting_per_link": self.max_waiting_per_link,
            "avg_waiting_per_link": self.avg_waiting_per_link,
            "overall_max": self.overall_max,
            "overall_avg": self.overall_avg,
            "throughput_total": self.throughput_total,
            "time_horizon_s": self.time_horizon_s,
        }


@dataclass
class SimOptions:
    observation_noise_p: float = 1.0  # detection probability per vehicle
    guidance_pad_s: int = 0
    sensing_latency_s: int = 2
    emergency_events: list[EmergencyEvent] = field(default_factory=list)
    blackouts: list[tuple[int, int]] = field(default_factory=list)  # [start, end)
    initial_motorized: Optional[tuple[int, ...]] = None
    initial_non_motorized: Optional[tuple[int, ...]] = None
    noise_seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.observation_noise_p <= 1.0:
            raise ConfigError("observation_noise_p must be in [0, 1]")
        if self.sensing_latency_s < 0:
            raise ConfigError("sensing_latency_s must be >= 0")
        for b in self.blackouts:
            if not (
                isinstance(b, (list, tuple)) and len(b) == 2
                and all(_is_number(v) for v in b) and b[0] <= b[1]
            ):
                raise ConfigError(
                    f"blackout must be [start, end] numbers with start <= end, "
                    f"got {b!r}"
                )
        self.blackouts = [tuple(b) for b in self.blackouts]

    @classmethod
    def from_dict(cls, d: dict) -> "SimOptions":
        check_fields(d, cls, "options")
        for key in ("emergency_events", "blackouts"):
            if not isinstance(d.get(key, []), list):
                raise ConfigError(f"{key} must be a list")
        for e in d.get("emergency_events", []):
            if not (isinstance(e, dict) and "time_s" in e and "link" in e):
                raise ConfigError(
                    f"emergency event needs 'time_s' and 'link', got {e!r}"
                )
        return cls(
            observation_noise_p=float(d.get("observation_noise_p", 1.0)),
            guidance_pad_s=int(d.get("guidance_pad_s", 0)),
            sensing_latency_s=int(d.get("sensing_latency_s", 2)),
            emergency_events=[
                EmergencyEvent(time_s=int(e["time_s"]), link=int(e["link"]))
                for e in d.get("emergency_events", [])
            ],
            blackouts=d.get("blackouts", []),
            initial_motorized=(
                tuple(d["initial_motorized"]) if "initial_motorized" in d else None
            ),
            initial_non_motorized=(
                tuple(d["initial_non_motorized"])
                if "initial_non_motorized" in d
                else None
            ),
            noise_seed=int(d.get("noise_seed", 1)),
        )


@dataclass
class TimeStep:
    t: int
    queues: list[int]  # motorized + non-motorized per link
    active_link: int  # -1 when no link is served (inter-green)
    phase_state: str  # "green" | "pad" | "inter_green"
    arrivals: list[int]
    discharged: list[int]


def apply_emergency_reorder(
    plan: SignalPlan, event: EmergencyEvent, active_index: int = 0
) -> SignalPlan:
    """Move the emergency link's phase to right after the active phase.

    Durations are untouched and every link is still served exactly once.
    """
    phases = list(plan.phases)
    pos = next((k for k, (l, _) in enumerate(phases) if l == event.link), None)
    if pos is None or pos <= active_index:
        return plan
    target = active_index + 1
    if pos == target:
        return plan
    phase = phases.pop(pos)
    phases.insert(target, phase)
    return SignalPlan(
        phases=tuple(phases),
        inter_green_s=plan.inter_green_s,
        guidance_pad_s=plan.guidance_pad_s,
    )


class _CycleSchedule:
    """Expands a plan into per-second (phase index, state, link) slots.

    Kept mutable so an emergency reorder can rewrite the not-yet-served
    tail of the cycle mid-flight.
    """

    def __init__(self, plan: SignalPlan):
        self.plan = plan
        self.pos = 0  # seconds into the cycle
        self.pending_priority: Optional[int] = None  # link to lead next cycle
        self._rebuild()

    def _rebuild(self) -> None:
        slots: list[tuple[int, str, int]] = []
        for idx, (link, g) in enumerate(self.plan.phases):
            slots += [(idx, "pad", link)] * self.plan.guidance_pad_s
            slots += [(idx, "green", link)] * g
            slots += [(idx, "pad", link)] * self.plan.guidance_pad_s
            slots += [(idx, "inter_green", -1)] * self.plan.inter_green_s
        self.slots = slots

    @property
    def done(self) -> bool:
        return self.pos >= len(self.slots)

    def current(self) -> tuple[int, str, int]:
        return self.slots[self.pos]

    def advance(self) -> None:
        self.pos += 1

    def reorder(self, event: EmergencyEvent) -> None:
        if self.done:
            self.pending_priority = event.link
            return
        active_idx = self.slots[self.pos][0]
        pos = next(
            (k for k, (l, _) in enumerate(self.plan.phases) if l == event.link), None
        )
        if pos is None or pos == active_idx:
            return
        if pos < active_idx:
            # Already served this cycle: finish the active phase, then start
            # a fresh cycle led by the emergency link.
            cut = self.pos
            while cut < len(self.slots) and self.slots[cut][0] == active_idx:
                cut += 1
            self.slots = self.slots[:cut]
            self.pending_priority = event.link
            return
        new_plan = apply_emergency_reorder(self.plan, event, active_idx)
        if new_plan is self.plan:
            return
        self.plan = new_plan
        self._rebuild()


def simulate(
    cfg: IntersectionConfig,
    demand: ArrivalModel,
    controller,
    horizon_s: int,
    options: Optional[SimOptions] = None,
) -> tuple[SimMetrics, list[TimeStep]]:
    """Run a second-by-second simulation of one intersection.

    Each second: arrivals accrue on every link, then the currently green
    link discharges at the class saturation rates. The controller is
    consulted once per completed cycle with the queue state observed
    ``sensing_latency_s`` earlier.
    """
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

    q_m = list(options.initial_motorized or (0,) * L)
    q_nm = list(options.initial_non_motorized or (0,) * L)
    if len(q_m) != L or len(q_nm) != L:
        raise ConfigError("initial queues must have one entry per link")

    history: list[tuple[list[int], list[int]]] = [(list(q_m), list(q_nm))]
    events = sorted(options.emergency_events, key=lambda e: e.time_s)
    next_event = 0

    def observe(t: int) -> QueueState:
        past = max(0, t - options.sensing_latency_s)
        m, nm = history[min(past, len(history) - 1)]
        p = options.observation_noise_p
        if p >= 1.0:
            om, onm = list(m), list(nm)
        else:
            om = [int(noise_rng.binomial(c, p)) for c in m]
            onm = [int(noise_rng.binomial(c, p)) for c in nm]
        return QueueState(motorized=tuple(om), non_motorized=tuple(onm),
                          timestamp_ms=t * 1000)

    def new_cycle(t: int, priority_link: Optional[int] = None) -> _CycleSchedule:
        plan = controller.next_plan(observe(t))
        violations = validate_plan(plan, cfg)
        if violations:
            raise ConfigError(
                "controller produced an invalid plan: " + "; ".join(violations)
            )
        if priority_link is not None:
            plan = apply_emergency_reorder(
                plan, EmergencyEvent(time_s=t, link=priority_link), active_index=-1
            )
        return _CycleSchedule(plan)

    schedule = new_cycle(0)
    # Fractional saturation flows discharge on the floor(rate*k) lattice so
    # a full green matches the optimizer's discharge model exactly.
    green_elapsed = 0
    throughput = 0
    steps: list[TimeStep] = []

    # Every arrival up front: numpy draws an array's variates in C order
    # from the same stream, so the [t][link] = (motorized, non-motorized)
    # layout replays a per-second, per-link, per-class draw loop exactly.
    rates = np.array([demand.motorized_rates, demand.non_motorized_rates]).T
    arrivals_by_t = arrival_rng.poisson(rates, size=(horizon_s, L, 2))
    blackout = [False] * horizon_s
    for s, e in options.blackouts:
        for t in range(horizon_s):
            if s <= t < e:
                blackout[t] = True

    for t in range(horizon_s):
        if schedule.done:
            schedule = new_cycle(t, schedule.pending_priority)
        while next_event < len(events) and events[next_event].time_s <= t:
            schedule.reorder(events[next_event])
            next_event += 1

        phase_idx, state, link = schedule.current()

        arrivals = [0] * L
        for i, (a_m, a_nm) in enumerate(arrivals_by_t[t].tolist()):
            arrivals[i] = a_m + a_nm
            q_m[i] += a_m
            q_nm[i] += a_nm

        discharged = [0] * L
        if state == "green" and not blackout[t]:
            green_elapsed += 1
            cap_m = (
                math.floor(cfg.sat_flow_motorized * green_elapsed)
                - math.floor(cfg.sat_flow_motorized * (green_elapsed - 1))
            )
            cap_nm = (
                math.floor(cfg.sat_flow_non_motorized * green_elapsed)
                - math.floor(cfg.sat_flow_non_motorized * (green_elapsed - 1))
            )
            d_m = min(q_m[link], cap_m)
            d_nm = min(q_nm[link], cap_nm)
            q_m[link] -= d_m
            q_nm[link] -= d_nm
            discharged[link] = d_m + d_nm
            throughput += d_m + d_nm

        schedule.advance()
        if schedule.done or schedule.current()[0] != phase_idx:
            green_elapsed = 0

        history.append((list(q_m), list(q_nm)))
        steps.append(
            TimeStep(
                t=t,
                queues=[q_m[i] + q_nm[i] for i in range(L)],
                active_link=link,
                phase_state=state,
                arrivals=arrivals,
                discharged=discharged,
            )
        )

    per_link = np.array([s.queues for s in steps])
    metrics = SimMetrics(
        max_waiting_per_link=[int(v) for v in per_link.max(axis=0)],
        avg_waiting_per_link=[float(v) for v in per_link.mean(axis=0)],
        overall_max=int(per_link.max()),
        overall_avg=float(per_link.mean()),
        throughput_total=throughput,
        time_horizon_s=horizon_s,
    )
    return metrics, steps


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
    if len(controllers) < 2:
        raise ValueError("need at least two controllers to compare")
    if not seeds:
        raise ValueError("need at least one seed")

    per_ctrl: dict[str, list[SimMetrics]] = {name: [] for name in controllers}
    for seed in seeds:
        paired = ArrivalModel(
            motorized_rates=demand.motorized_rates,
            non_motorized_rates=demand.non_motorized_rates,
            rng_seed=seed,
        )
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
