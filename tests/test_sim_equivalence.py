"""The stretch-at-a-time simulator against the per-second loop it replaced.

``reference_simulate`` below is a verbatim copy of the per-second
``simulate`` (with its ``TimeStep``, ``apply_emergency_reorder`` and
``_CycleSchedule``); only the function's name differs. On seeded random
scenarios the two must give equal metrics, trace columns equal to the
reference rows stacked, and hand the controller equal observations; the
time-series writer must write the bytes the per-row writer wrote.
"""

import csv
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from greenlight import cli, nsga2
from greenlight.core import (
    ConfigError,
    IntersectionConfig,
    QueueState,
    SignalPlan,
    validate_plan,
)
from greenlight.simulator import (
    PHASE_STATES,
    AdaptiveController,
    ArrivalModel,
    EmergencyEvent,
    FixedTimeController,
    SimMetrics,
    SimOptions,
    simulate,
)


# -- reference: the per-second simulator, verbatim --------------------------


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


def reference_simulate(
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


def reference_write_timeseries(path, steps, L):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"queue_link_{i}" for i in range(L)]
            + ["active_link", "phase_state"]
        )
        for s in steps:
            writer.writerow([s.t] + s.queues + [s.active_link, s.phase_state])


# -- scenarios ---------------------------------------------------------------


class Recorder:
    """Wraps a controller and records every observation it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.observed = []

    def next_plan(self, observed):
        self.observed.append(observed)
        return self.inner.next_plan(observed)


class QueueDriven:
    """Plans from the observed counts, so any observation that differs
    changes the greens and order of the next cycle."""

    def __init__(self, cfg, pad):
        self.cfg = cfg
        self.pad = pad
        self.cycles = 0

    def next_plan(self, observed):
        cfg = self.cfg
        span = cfg.max_green_s - cfg.min_green_s + 1
        greens = [cfg.min_green_s + (7 * m + 3 * nm + self.cycles) % span
                  for m, nm in zip(observed.motorized, observed.non_motorized)]
        shift = (observed.total() + self.cycles) % cfg.num_links
        order = [(shift + k) % cfg.num_links for k in range(cfg.num_links)]
        self.cycles += 1
        return SignalPlan(phases=tuple((l, greens[l]) for l in order),
                          inter_green_s=cfg.inter_green_s,
                          guidance_pad_s=self.pad)


def random_case(rng: random.Random):
    L = rng.randint(2, 6)
    lo = rng.randint(1, 8)
    cfg = IntersectionConfig(
        num_links=L, min_green_s=lo, max_green_s=lo + rng.randint(0, 30),
        inter_green_s=rng.choice([0, 0, 1, 2, 3, 4]),
        sat_flow_motorized=rng.choice([0.5, 0.37, 1.0, 1.3, 0.8333, 2, 0.1]),
        sat_flow_non_motorized=rng.choice([0.25, 0.6, 1, 0.45, 0.07]),
    )
    pad = rng.choice([0, 0, 1, 2, 3])
    greens = [rng.randint(cfg.min_green_s, cfg.max_green_s) for _ in range(L)]
    order = rng.sample(range(L), L)
    cycle = sum(greens) + L * (2 * pad + cfg.inter_green_s)
    horizon = rng.choice([1, 2, rng.randint(1, 40), rng.randint(1, 4 * cycle),
                          rng.randint(cycle, 600)])
    # Seconds where something starts or ends in the first two cycles: phase
    # edges, cycle ends and the seconds around them.
    edges, t = [0], 0
    for _ in range(2):
        for l in order:
            for n in (pad, greens[l], pad, cfg.inter_green_s):
                t += n
                edges += [t - 1, t, t + 1]
    events = []
    for _ in range(rng.choice([0, 0, 1, 2, 3, 5])):
        time_s = rng.choice([0, rng.choice(edges), rng.randint(-5, horizon + 5),
                             cycle - 1, cycle, cycle + 1])
        events.append(EmergencyEvent(time_s=time_s, link=rng.randrange(L)))
        if rng.random() < 0.3:  # a second event in the same second
            events.append(EmergencyEvent(time_s=time_s, link=rng.randrange(L)))
    blackouts = []
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        start = rng.choice([rng.randint(-30, horizon), rng.choice(edges),
                            rng.uniform(-10, horizon)])
        blackouts.append((start, start + rng.choice(
            [0, 1, rng.randint(1, 60), rng.uniform(0, 90), 10_000])))
    options = SimOptions(
        observation_noise_p=rng.choice([1.0, 1.0, 0.0, rng.uniform(0.2, 0.99)]),
        guidance_pad_s=pad,
        sensing_latency_s=rng.choice([0, 0, 1, 2, 5, cycle + rng.randint(1, 50)]),
        emergency_events=events,
        blackouts=blackouts,
        initial_motorized=tuple(rng.randint(0, 25) for _ in range(L)),
        initial_non_motorized=tuple(rng.randint(0, 10) for _ in range(L)),
        noise_seed=rng.randint(0, 99),
    )
    demand = ArrivalModel(
        tuple(rng.choice([0.0, rng.uniform(0, 0.6), rng.uniform(0.5, 2.5)])
              for _ in range(L)),
        tuple(rng.choice([0.0, rng.uniform(0, 0.3)]) for _ in range(L)),
        rng_seed=rng.randint(0, 10_000),
    )
    kind = rng.choice(["fixed", "queue"])
    if kind == "fixed":
        def make():
            return FixedTimeController(greens, cfg, guidance_pad_s=pad,
                                       order=order)
    else:
        def make():
            return QueueDriven(cfg, pad)
    return cfg, demand, make, horizon, options


def assert_same_run(cfg, demand, make, horizon, options):
    ref_ctrl, new_ctrl = Recorder(make()), Recorder(make())
    ref_metrics, ref_steps = reference_simulate(cfg, demand, ref_ctrl, horizon,
                                                options)
    metrics, trace = simulate(cfg, demand, new_ctrl, horizon, options)
    assert new_ctrl.observed == ref_ctrl.observed
    assert metrics.to_dict() == ref_metrics.to_dict()
    assert [type(v) for v in metrics.avg_waiting_per_link] == [float] * cfg.num_links
    assert [s.t for s in ref_steps] == list(range(horizon))
    for column in ("queues", "arrivals", "discharged", "active_link"):
        np.testing.assert_array_equal(
            getattr(trace, column),
            np.array([getattr(s, column) for s in ref_steps], dtype=np.int64))
    assert ([PHASE_STATES[p] for p in trace.phase]
            == [s.phase_state for s in ref_steps])
    return trace, ref_steps


class TestSameAsPerSecondLoop:
    def test_random_scenarios(self):
        rng = random.Random(6)
        for _ in range(400):
            assert_same_run(*random_case(rng))

    def test_adaptive_controller(self, palashi_cfg):
        rng = random.Random(11)
        params = nsga2.OptimizerParams(population_size=8, generations=4)
        for _ in range(6):
            _, demand, _, horizon, options = random_case(rng)
            L = palashi_cfg.num_links
            demand = ArrivalModel(
                tuple(rng.uniform(0, 0.3) for _ in range(L)),
                tuple(rng.uniform(0, 0.1) for _ in range(L)),
                rng_seed=rng.randint(0, 99))
            options = SimOptions(
                observation_noise_p=options.observation_noise_p,
                sensing_latency_s=options.sensing_latency_s,
                guidance_pad_s=options.guidance_pad_s,
                blackouts=options.blackouts,
                emergency_events=[EmergencyEvent(e.time_s, e.link % L)
                                  for e in options.emergency_events],
            )
            assert_same_run(palashi_cfg, demand,
                            lambda: AdaptiveController(palashi_cfg, params),
                            max(horizon, 200), options)

    @pytest.mark.parametrize("events", [
        [(0, 1)],                      # at t = 0, for the next link
        [(0, 0)],                      # at t = 0, for the active link
        [(20, 0)],                     # first second of a clearance
        [(23, 2)],                     # first second of a green
        [(30, 0)],                     # already served: cut, then lead
        [(30, 0), (30, 2)],            # cut, then a reorder in one second
        [(30, 2), (30, 0)],            # reorder, then a cut in one second
        [(30, 0), (31, 1)],            # cut, then an event for a later link
        [(68, 1), (69, 0)],            # a cycle's last and next first second
        [(68, 2)],                     # the cycle's last second
        [(69, 1)],                     # the next cycle's first second
        [(-4, 2), (300, 1)],           # before 0 and past the horizon
    ])
    def test_emergencies(self, events):
        cfg = IntersectionConfig(num_links=3, min_green_s=5, max_green_s=40,
                                 inter_green_s=3)
        options = SimOptions(
            emergency_events=[EmergencyEvent(t, l) for t, l in events],
            initial_motorized=(9, 9, 9), sensing_latency_s=0)
        demand = ArrivalModel((0.2, 0.1, 0.3), (0.05, 0.0, 0.1), rng_seed=1)
        assert_same_run(cfg, demand,
                        lambda: FixedTimeController([20, 20, 20], cfg),
                        150, options)

    @pytest.mark.parametrize("blackouts", [
        [(5, 12)], [(5, 12), (10, 30)], [(-3, 4)], [(100, 10_000)],
        [(0, 0), (7.5, 7.5)], [(2.25, 18.75)], [(0, 150)],
    ])
    def test_blackouts(self, blackouts):
        cfg = IntersectionConfig(num_links=2, min_green_s=5, max_green_s=40,
                                 inter_green_s=0, sat_flow_motorized=0.7,
                                 sat_flow_non_motorized=0.3)
        options = SimOptions(blackouts=blackouts, initial_motorized=(30, 30),
                             initial_non_motorized=(4, 4))
        demand = ArrivalModel((0.4, 0.3), (0.1, 0.1), rng_seed=2)
        assert_same_run(cfg, demand,
                        lambda: FixedTimeController([13, 9], cfg), 150, options)

    @pytest.mark.parametrize("horizon", [1, 2, 12, 13, 14, 57])
    def test_short_and_mid_phase_horizons(self, horizon):
        cfg = IntersectionConfig(num_links=2, min_green_s=5, max_green_s=40,
                                 inter_green_s=2)
        options = SimOptions(initial_motorized=(5, 7), guidance_pad_s=1)
        demand = ArrivalModel((0.5, 0.2), (0.1, 0.0), rng_seed=3)
        assert_same_run(cfg, demand,
                        lambda: FixedTimeController([10, 12], cfg,
                                                    guidance_pad_s=1),
                        horizon, options)

    def test_writer_bytes(self, tmp_path):
        rng = random.Random(8)
        for k in range(20):
            cfg, demand, make, horizon, options = random_case(rng)
            trace, ref_steps = assert_same_run(cfg, demand, make, horizon,
                                               options)
            cli._write_timeseries(tmp_path / "new.csv", trace, cfg.num_links)
            reference_write_timeseries(tmp_path / "ref.csv", ref_steps,
                                       cfg.num_links)
            assert (tmp_path / "new.csv").read_bytes() == (
                tmp_path / "ref.csv").read_bytes()


class TestTrace:
    def run(self):
        cfg = IntersectionConfig(num_links=2, min_green_s=5, max_green_s=40,
                                 inter_green_s=3)
        demand = ArrivalModel((0.3, 0.2), (0.1, 0.0), rng_seed=5)
        return simulate(cfg, demand, FixedTimeController([10, 8], cfg), 40)[1]

    def test_columns_are_int64(self):
        trace = self.run()
        for col in (trace.queues, trace.arrivals, trace.discharged):
            assert col.dtype == np.int64 and col.shape == (40, 2)
            assert col.flags.c_contiguous
        assert trace.active_link.shape == trace.phase.shape == (40,)
