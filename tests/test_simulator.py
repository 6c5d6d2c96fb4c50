import dataclasses

import numpy as np
import pytest

from greenlight import nsga2, objectives, simulator
from greenlight.core import (
    MAX_COUNT,
    ConfigError,
    IntersectionConfig,
    QueueState,
    SignalPlan,
)
from greenlight.simulator import (
    ArrivalModel,
    EmergencyEvent,
    FixedTimeController,
    SimOptions,
    apply_emergency_reorder,
    compare_controllers,
    simulate,
)


def cfg_of(L=2, **kw):
    defaults = dict(num_links=L, min_green_s=5, max_green_s=60, inter_green_s=3)
    defaults.update(kw)
    return IntersectionConfig(**defaults)


def zero_demand(L, seed=0):
    return ArrivalModel((0.0,) * L, (0.0,) * L, rng_seed=seed)


class TestApplyEmergencyReorder:
    def plan5(self):
        return SignalPlan(phases=tuple((i, 10 + i) for i in range(5)),
                          inter_green_s=3)

    def test_moves_link_after_active(self):
        out = apply_emergency_reorder(self.plan5(), 3, active_index=0)
        assert [l for l, _ in out.phases] == [0, 3, 1, 2, 4]
        assert sorted(out.greens) == sorted(self.plan5().greens)

    def test_already_next_unchanged(self):
        plan = self.plan5()
        assert apply_emergency_reorder(plan, 1, active_index=0) is plan

    def test_single_link_unchanged(self):
        plan = SignalPlan(phases=((0, 20),), inter_green_s=0)
        assert apply_emergency_reorder(plan, 0) is plan

    def test_durations_preserved(self):
        plan = self.plan5()
        out = apply_emergency_reorder(plan, 4, active_index=1)
        assert dict(out.phases) == dict(plan.phases)
        assert [l for l, _ in out.phases] == [0, 1, 4, 2, 3]


class TestSimulate:
    def test_zero_demand_drains_initial_queue(self):
        cfg = cfg_of()
        ctrl = FixedTimeController([20, 20], cfg)
        opts = SimOptions(initial_motorized=(8, 4), initial_non_motorized=(1, 0))
        metrics, trace = simulate(cfg, zero_demand(2), ctrl, 300, opts)
        assert metrics.throughput_total == 13
        assert trace.queues[-1].tolist() == [0, 0]

    def test_zero_demand_zero_queue_all_zero(self):
        cfg = cfg_of()
        ctrl = FixedTimeController([20, 20], cfg)
        metrics, _ = simulate(cfg, zero_demand(2), ctrl, 120)
        assert metrics.overall_max == 0
        assert metrics.overall_avg == 0.0
        assert metrics.throughput_total == 0

    def test_undersaturated_link_is_stable(self):
        # all demand on link 0, well under its green-share capacity
        cfg = cfg_of(sat_flow_motorized=1.0)
        ctrl = FixedTimeController([30, 5], cfg)
        demand = ArrivalModel((0.2, 0.0), (0.0, 0.0), rng_seed=4)
        _, trace = simulate(cfg, demand, ctrl, 10_000)
        totals = trace.queues.sum(axis=1)
        t = np.arange(len(totals))
        slope = np.polyfit(t, totals, 1)[0]
        assert abs(slope) < 0.005  # no drift over 10k seconds

    def test_symmetric_demand_symmetric_waiting(self):
        cfg = cfg_of()
        ctrl = FixedTimeController([20, 20], cfg)
        avgs = []
        for seed in range(20):
            demand = ArrivalModel((0.05, 0.05), (0.01, 0.01), rng_seed=seed)
            m, _ = simulate(cfg, demand, ctrl, 600)
            avgs.append(m.avg_waiting_per_link)
        mean0 = np.mean([a[0] for a in avgs])
        mean1 = np.mean([a[1] for a in avgs])
        assert mean0 == pytest.approx(mean1, rel=0.25)

    def test_conservation_identity(self):
        cfg = cfg_of(L=3)
        ctrl = FixedTimeController([15, 10, 25], cfg)
        demand = ArrivalModel((0.1, 0.05, 0.2), (0.02, 0.0, 0.05), rng_seed=9)
        _, trace = simulate(cfg, demand, ctrl, 500)
        assert (np.diff(trace.queues, axis=0, prepend=0)
                == trace.arrivals - trace.discharged).all()
        assert (trace.queues >= 0).all()

    def test_counts_at_their_ceiling_stay_exact(self):
        # Saturation flows, arrival rates and initial queues of MAX_COUNT
        # each: every count still adds up in int64.
        top = MAX_COUNT
        cfg = cfg_of(sat_flow_motorized=top, sat_flow_non_motorized=top)
        ctrl = FixedTimeController([20, 30], cfg)
        demand = ArrivalModel((top, top), (top, 0), rng_seed=2)
        opts = SimOptions(initial_motorized=(top, top),
                          initial_non_motorized=(top, top))
        metrics, trace = simulate(cfg, demand, ctrl, 200, opts)
        assert (np.diff(trace.queues, axis=0, prepend=2 * top)
                == trace.arrivals - trace.discharged).all()
        assert metrics.throughput_total == (
            4 * top + trace.arrivals.sum() - trace.queues[-1].sum())

    def test_reproducible_bit_exact(self):
        cfg = cfg_of()
        ctrl = FixedTimeController([20, 25], cfg)
        demand = ArrivalModel((0.1, 0.08), (0.02, 0.01), rng_seed=7)
        m1, s1 = simulate(cfg, demand, ctrl, 400)
        m2, s2 = simulate(cfg, demand, ctrl, 400)
        assert m1.to_dict() == m2.to_dict()
        for column in dataclasses.fields(s1):
            np.testing.assert_array_equal(getattr(s1, column.name),
                                          getattr(s2, column.name))

    def test_guidance_pad_lengthens_cycle(self):
        cfg = cfg_of()
        demand = ArrivalModel((0.05, 0.05), (0.0, 0.0), rng_seed=3)
        plain = FixedTimeController([20, 20], cfg)
        padded = FixedTimeController([20, 20], cfg, guidance_pad_s=4)
        assert (padded._plan.cycle_length_s
                == plain._plan.cycle_length_s + 2 * 2 * 4)
        empty = QueueState(motorized=(0, 0), non_motorized=(0, 0))
        assert (objectives.evaluate(padded._plan, empty, cfg).f2
                > objectives.evaluate(plain._plan, empty, cfg).f2)
        # pads display green but do not discharge
        opts = SimOptions(initial_motorized=(10, 0), guidance_pad_s=4)
        _, trace = simulate(cfg, zero_demand(2), padded, 50, opts)
        pad = trace.phase == simulator.PHASE_STATES.index("pad")
        assert pad.any() and not trace.discharged[pad].any()

    def test_blackout_stops_discharge(self):
        cfg = cfg_of()
        ctrl = FixedTimeController([20, 20], cfg)
        opts = SimOptions(initial_motorized=(20, 20), blackouts=[(0, 30)])
        _, trace = simulate(cfg, zero_demand(2), ctrl, 60, opts)
        assert not trace.discharged[:30].any()
        assert trace.discharged[30:].any()

    def test_observation_noise_thins_counts(self):
        cfg = cfg_of()

        class Spy(FixedTimeController):
            observed = []

            def next_plan(self, observed):
                Spy.observed.append(observed)
                return super().next_plan(observed)

        ctrl = Spy([20, 20], cfg)
        opts = SimOptions(initial_motorized=(100, 100),
                          observation_noise_p=0.5, sensing_latency_s=0)
        simulate(cfg, zero_demand(2), ctrl, 200, opts)
        later = Spy.observed[1]
        assert 0 < later.motorized[1] < 100

    def test_invalid_controller_plan_aborts(self):
        cfg = cfg_of()

        class Bad:
            def next_plan(self, observed):
                return SignalPlan(phases=((0, 20),), inter_green_s=3)

        with pytest.raises(ConfigError, match="invalid plan"):
            simulate(cfg, zero_demand(2), Bad(), 100)

    def test_horizon_validated(self):
        cfg = cfg_of()
        with pytest.raises(ConfigError, match="horizon"):
            simulate(cfg, zero_demand(2), FixedTimeController([20, 20], cfg), 0)


def scalar_arrivals(demand, horizon_s):
    """Per-second, per-link (motorized, non-motorized) draws, one call each:
    the loop the batched draw replaces."""
    rng = np.random.default_rng(demand.rng_seed)
    return [
        [(int(rng.poisson(m)), int(rng.poisson(nm)))
         for m, nm in zip(demand.motorized_rates, demand.non_motorized_rates)]
        for _ in range(horizon_s)
    ]


RATE_VECTORS = [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.3, 2.5, 9.99), (0.05, 0.0, 7.0)),
    ((10.0, 12.5, 40.0), (15.0, 10.0, 99.5)),
    ((0.0, 11.0, 0.4), (25.0, 0.0, 3.0)),
]


class TestArrivalStream:
    @pytest.mark.parametrize("rates", RATE_VECTORS)
    @pytest.mark.parametrize("horizon", [1, 2, 37])
    def test_one_call_equals_scalar_loop(self, rates, horizon):
        for seed in range(12):
            demand = ArrivalModel(*rates, rng_seed=seed)
            batched = np.random.default_rng(seed).poisson(
                np.array(rates).T, size=(horizon, 3, 2))
            assert batched.tolist() == [
                [list(pair) for pair in row]
                for row in scalar_arrivals(demand, horizon)
            ]

    @pytest.mark.parametrize("rates", RATE_VECTORS)
    @pytest.mark.parametrize("horizon", [1, 90])
    def test_simulate_arrivals_follow_scalar_stream(self, rates, horizon):
        cfg = cfg_of(L=3)
        ctrl = FixedTimeController([15, 10, 25], cfg)
        for seed in range(6):
            demand = ArrivalModel(*rates, rng_seed=seed)
            _, trace = simulate(cfg, demand, ctrl, horizon)
            assert trace.arrivals.tolist() == [
                [m + nm for m, nm in row]
                for row in scalar_arrivals(demand, horizon)
            ]


class TestEmergencyInSimulation:
    def test_emergency_link_served_promptly(self):
        cfg = cfg_of(L=4)
        ctrl = FixedTimeController([20, 20, 20, 20], cfg)
        event = EmergencyEvent(time_s=5, link=2)
        opts = SimOptions(emergency_events=[event])
        _, trace = simulate(cfg, zero_demand(4), ctrl, 200, opts)
        active_at = trace.active_link[event.time_s]
        # service must start right after the active phase and one clearance
        t = event.time_s
        while trace.active_link[t] in (active_at, -1):
            t += 1
        assert trace.active_link[t] == event.link

    @pytest.mark.parametrize("events, first_green", [
        ([(15, 3), (16, 0)], {3: 24, 0: 36}),
        ([(15, 0), (16, 3)], {0: 24, 3: 36}),
    ])
    def test_emergencies_in_one_phase_served_in_arrival_order(
            self, events, first_green):
        # Link 1 is green over [12, 22), then clears until 24; neither
        # emergency may undo the other.
        cfg = cfg_of(L=4, inter_green_s=2)
        ctrl = FixedTimeController([10, 10, 10, 10], cfg)
        opts = SimOptions(
            emergency_events=[EmergencyEvent(t, l) for t, l in events])
        _, trace = simulate(cfg, zero_demand(4), ctrl, 80, opts)
        active = trace.active_link.tolist()
        assert {link: active.index(link, 15) for link in first_green} == (
            first_green)

    def test_emergency_for_active_link_noop(self):
        cfg = cfg_of(L=3)
        ctrl = FixedTimeController([20, 20, 20], cfg)
        opts = SimOptions(emergency_events=[EmergencyEvent(time_s=2, link=0)])
        _, trace = simulate(cfg, zero_demand(3), ctrl, 100, opts)
        baseline = simulate(cfg, zero_demand(3), ctrl, 100)[1]
        assert trace.active_link.tolist() == baseline.active_link.tolist()


class TestCompareControllers:
    def test_self_comparison_zero_delta(self):
        cfg = cfg_of()
        demand = ArrivalModel((0.08, 0.04), (0.01, 0.01))
        ctrls = {
            "a": FixedTimeController([20, 20], cfg),
            "b": FixedTimeController([20, 20], cfg),
        }
        rep = compare_controllers(cfg, demand, ctrls, 400, seeds=[1, 2, 3])
        deltas = rep["controllers"]["b"]["vs_a"]
        assert deltas["overall_avg_pct_change"] == 0.0
        assert deltas["overall_max_pct_change"] == 0.0

    def test_permuted_fixed_plans_equal_under_symmetry(self):
        cfg = cfg_of()
        demand = ArrivalModel((0.05, 0.05), (0.01, 0.01))
        ctrls = {
            "fwd": FixedTimeController([20, 20], cfg, order=[0, 1]),
            "rev": FixedTimeController([20, 20], cfg, order=[1, 0]),
        }
        rep = compare_controllers(cfg, demand, ctrls, 800,
                                  seeds=list(range(12)))
        delta = rep["controllers"]["rev"]["vs_fwd"]["overall_avg_pct_change"]
        assert abs(delta) < 20.0

    def test_requires_two_controllers_and_seeds(self):
        cfg = cfg_of()
        demand = ArrivalModel((0.05, 0.05), (0.0, 0.0))
        one = {"a": FixedTimeController([20, 20], cfg)}
        with pytest.raises(ValueError):
            compare_controllers(cfg, demand, one, 100, [1])
        two = dict(one, b=FixedTimeController([10, 10], cfg))
        with pytest.raises(ValueError):
            compare_controllers(cfg, demand, two, 100, [])

    def test_adaptive_not_worse_under_asymmetry_single_seed(self):
        cfg = cfg_of(L=3, min_green_s=5, max_green_s=40)
        demand = ArrivalModel((0.12, 0.02, 0.02), (0.02, 0.0, 0.0))
        params = nsga2.OptimizerParams(population_size=16, generations=12,
                                       rng_seed=0)
        ctrls = {
            "fixed": FixedTimeController([20, 20, 20], cfg),
            "adaptive": simulator.AdaptiveController(cfg, params),
        }
        rep = compare_controllers(cfg, demand, ctrls, 600, seeds=[5])
        fixed = rep["controllers"]["fixed"]["mean"]["overall_avg"]
        adaptive = rep["controllers"]["adaptive"]["mean"]["overall_avg"]
        assert adaptive <= fixed * 1.1


class TestControllerSettings:
    """A controller built in code is checked as its scenario entry is."""

    @pytest.mark.parametrize("build, message", [
        (lambda cfg: FixedTimeController([20.5, 30], cfg),
         "greens must be an integer, got 20.5"),
        (lambda cfg: FixedTimeController([True, 20], cfg),
         "greens must be a number, got True"),
        (lambda cfg: simulator.AdaptiveController(cfg, weights=("a", 1)),
         "weights must be two numbers"),
        (lambda cfg: simulator.AdaptiveController(cfg, weights=(-1, 1)),
         "weights must be >= 0, got -1"),
        (lambda cfg: simulator.AdaptiveController(cfg, weights=(0, 0)),
         "weights must not both be 0, got [0, 0]"),
    ], ids=["fractional green", "bool green", "string weight",
            "negative weight", "zero weights"])
    def test_bad_setting_refused(self, build, message):
        with pytest.raises(ConfigError) as exc:
            build(cfg_of())
        assert str(exc.value) == message


class TestPlannerSettings:
    """Every surface that plans is a ``nsga2.Planner``: its planner settings
    are the fields ``Planner`` declares, not copies of them."""

    def test_declared_once(self):
        from greenlight.cli import OptimizeConfig
        from greenlight.pipeline import PipelineConfig
        declared = nsga2.Planner.__dataclass_fields__
        keys = ["optimizer", "policy", "weights", "guidance_pad_s"]
        for surface, own in [(OptimizeConfig, keys + ["intersection"]),
                             (PipelineConfig, keys),
                             (simulator.AdaptiveController, keys[:3])]:
            assert issubclass(surface, nsga2.Planner)
            for k in own:
                assert surface.__dataclass_fields__[k] is declared[k], (surface, k)

    def test_adaptive_entry_keys(self):
        # The intersection and the pad come from the scenario.
        assert list(simulator.CONTROLLER.variants["adaptive"]) == [
            "name", "optimizer", "policy", "weights"]

    def test_memo_is_not_a_setting(self, palashi_cfg):
        ctrl = simulator.AdaptiveController(palashi_cfg)
        assert ctrl.memo == {} and nsga2.Planner(palashi_cfg).memo is None
        assert "memo" not in ctrl.to_dict()


class TestAdaptiveController:
    def test_light_run_evolves_fewer_fronts_than_it_plans(self, palashi_cfg,
                                                          monkeypatch):
        # Light queues clear at min green, so many cycles repeat an
        # objective map and reuse the controller's stored front.
        counts = {"plans": 0, "evolved": 0}
        draw_script = nsga2._draw_script

        def evolving(*args):
            counts["evolved"] += 1
            return draw_script(*args)

        monkeypatch.setattr(nsga2, "_draw_script", evolving)
        params = nsga2.OptimizerParams(population_size=12, generations=8)
        ctrl = simulator.AdaptiveController(palashi_cfg, params)
        next_plan = ctrl.next_plan

        def planning(observed):
            counts["plans"] += 1
            return next_plan(observed)

        ctrl.next_plan = planning
        demand = ArrivalModel((0.03,) * 5, (0.01,) * 5, rng_seed=3)
        simulate(palashi_cfg, demand, ctrl, 1800)
        assert 0 < counts["evolved"] < counts["plans"]

    def test_stored_fronts_give_the_same_run(self, palashi_cfg, monkeypatch):
        params = nsga2.OptimizerParams(population_size=12, generations=8)
        demand = ArrivalModel((0.06, 0.02, 0.02, 0.02, 0.02),
                              (0.01,) * 5, rng_seed=8)
        counts = {"plans": 0, "evolved": 0}
        draw_script = nsga2._draw_script
        planner_call = nsga2.Planner.__call__

        def evolving(*args):
            counts["evolved"] += 1
            return draw_script(*args)

        def planning(planner, queue):
            counts["plans"] += 1
            return planner_call(planner, queue)

        monkeypatch.setattr(nsga2, "_draw_script", evolving)
        monkeypatch.setattr(nsga2.Planner, "__call__", planning)
        runs = []
        for memo in (True, False):
            counts.update(plans=0, evolved=0)
            ctrl = simulator.AdaptiveController(palashi_cfg, params)
            if not memo:
                ctrl.memo = None
            metrics, trace = simulate(palashi_cfg, demand, ctrl, 1200)
            runs.append((metrics, trace.queues.tolist()))
            if memo:
                assert 0 < counts["evolved"] < counts["plans"]
            else:
                assert counts["evolved"] == counts["plans"] > 0
        assert runs[0] == runs[1]
