import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlight import objectives
from greenlight.core import IntersectionConfig, ObjectiveVector, QueueState, SignalPlan
from greenlight.nsga2 import plan_from_genome


def make_cfg(**kw):
    defaults = dict(num_links=2, min_green_s=1, max_green_s=120, inter_green_s=0,
                    sat_flow_motorized=0.5, sat_flow_non_motorized=0.25)
    defaults.update(kw)
    return IntersectionConfig(**defaults)


def plan_of(greens, inter_green=0, pad=0):
    return SignalPlan(
        phases=tuple((i, g) for i, g in enumerate(greens)),
        inter_green_s=inter_green, guidance_pad_s=pad,
    )


class TestDischarge:
    def test_hand_example(self):
        # 10 s of green at 0.5/s drains 5 motorized; 0.25/s drains 2 non-motorized
        cfg = make_cfg()
        q = QueueState(motorized=(10, 5), non_motorized=(3, 2))
        out = objectives.discharge(q, plan_of([10, 10]), cfg)
        assert out.motorized == (5, 0)
        assert out.non_motorized == (1, 0)

    def test_zero_queue_stays_zero(self):
        cfg = make_cfg()
        q = QueueState(motorized=(0, 0), non_motorized=(0, 0))
        out = objectives.discharge(q, plan_of([60, 5]), cfg)
        assert out.motorized == (0, 0) and out.non_motorized == (0, 0)

    def test_zero_green_leaves_queue_unchanged(self):
        cfg = make_cfg()
        q = QueueState(motorized=(7, 3), non_motorized=(2, 9))
        out = objectives.discharge(q, plan_of([0, 0]), cfg)
        assert out.motorized == q.motorized
        assert out.non_motorized == q.non_motorized

    def test_dimension_mismatch(self):
        cfg = make_cfg()
        q = QueueState(motorized=(1,), non_motorized=(1,))
        with pytest.raises(ValueError, match="links"):
            objectives.discharge(q, plan_of([10, 10]), cfg)


class TestF1:
    def test_sum_after_discharge(self):
        q = QueueState(motorized=(5, 0), non_motorized=(1, 0))
        assert objectives.f1(q) == 6

    def test_zero(self):
        assert objectives.f1(QueueState(motorized=(0,), non_motorized=(0,))) == 0

    def test_direct_sum(self):
        q = QueueState(motorized=(1, 1, 1), non_motorized=(0, 0, 0))
        assert objectives.f1(q) == 3


class TestRedTimes:
    def test_hand_example(self):
        plan = plan_of([10, 20, 30], inter_green=3)
        assert plan.cycle_length_s == 69
        assert objectives.red_times(plan) == [59, 49, 39]

    def test_single_link_never_red(self):
        assert objectives.red_times(plan_of([15])) == [0]

    def test_symmetric(self):
        assert objectives.red_times(plan_of([10, 10])) == [10, 10]


class TestF2:
    def test_hand_example(self):
        assert objectives.f2(plan_of([10, 20, 30], inter_green=3)) == 147

    def test_single_link(self):
        assert objectives.f2(plan_of([15])) == 0

    def test_doubling_greens_doubles_f2(self):
        assert objectives.f2(plan_of([20, 40, 60])) == 2 * objectives.f2(
            plan_of([10, 20, 30])
        )

    def test_closed_form(self):
        # (L-1) * sum(g) + L^2 * inter_green for pad 0: every link sits red
        # through all L clearance intervals
        greens = [12, 34, 7, 25]
        plan = plan_of(greens, inter_green=4)
        assert objectives.f2(plan) == 3 * sum(greens) + 4 * 4 * 4


class TestEvaluate:
    def test_composition(self):
        cfg = make_cfg()
        q = QueueState(motorized=(10, 5), non_motorized=(3, 2))
        plan = plan_of([10, 10])
        obj = objectives.evaluate(plan, q, cfg)
        assert obj.f1 == 6
        assert obj.f2 == objectives.f2(plan)

    def test_zero_queue_minimal_greens(self):
        cfg = make_cfg(min_green_s=5)
        q = QueueState(motorized=(0, 0), non_motorized=(0, 0))
        obj = objectives.evaluate(plan_of([5, 5]), q, cfg)
        assert obj.f1 == 0
        assert obj.f2 == 10

    def test_green_sweep_monotone(self):
        cfg = make_cfg(num_links=3)
        q = QueueState(motorized=(40, 10, 5), non_motorized=(8, 2, 0))
        prev_f1, prev_f2 = None, None
        for g0 in range(1, 121):
            obj = objectives.evaluate(plan_of([g0, 20, 20], inter_green=3), q, cfg)
            if prev_f1 is not None:
                assert obj.f1 <= prev_f1
                assert obj.f2 >= prev_f2
            prev_f1, prev_f2 = obj.f1, obj.f2


link_counts = st.integers(2, 5)


@st.composite
def queue_plan_cfg(draw):
    L = draw(link_counts)
    cfg = IntersectionConfig(
        num_links=L, min_green_s=1, max_green_s=90,
        inter_green_s=draw(st.integers(0, 6)),
        sat_flow_motorized=draw(st.sampled_from([0.25, 0.5, 1.0, 1.5])),
        sat_flow_non_motorized=draw(st.sampled_from([0.1, 0.25, 0.5])),
    )
    q = QueueState(
        motorized=tuple(draw(st.integers(0, 80)) for _ in range(L)),
        non_motorized=tuple(draw(st.integers(0, 40)) for _ in range(L)),
    )
    greens = [draw(st.integers(1, 90)) for _ in range(L)]
    return q, greens, cfg


@given(queue_plan_cfg())
def test_discharge_monotone_in_queue(data):
    q, greens, cfg = data
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    out = objectives.discharge(q, plan, cfg)
    bigger = QueueState(
        motorized=tuple(v + 3 for v in q.motorized),
        non_motorized=tuple(v + 2 for v in q.non_motorized),
    )
    out_big = objectives.discharge(bigger, plan, cfg)
    assert all(a <= b for a, b in zip(out.motorized, out_big.motorized))
    assert all(a <= b for a, b in zip(out.non_motorized, out_big.non_motorized))


@given(queue_plan_cfg())
def test_f1_bounds(data):
    q, greens, cfg = data
    import math
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    val = objectives.f1(objectives.discharge(q, plan, cfg))
    total = q.total()
    capacity = sum(
        math.floor(cfg.sat_flow_motorized * g) + math.floor(
            cfg.sat_flow_non_motorized * g
        )
        for g in greens
    )
    assert max(0, total - capacity) <= val <= total


@given(queue_plan_cfg(), st.randoms())
def test_f2_permutation_invariant(data, rnd):
    _, greens, cfg = data
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    order = list(range(len(greens)))
    rnd.shuffle(order)
    permuted = SignalPlan(
        phases=tuple(plan.phases[i] for i in order),
        inter_green_s=plan.inter_green_s,
    )
    assert objectives.f2(plan) == objectives.f2(permuted)


@given(queue_plan_cfg())
def test_evaluate_deterministic(data):
    q, greens, cfg = data
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    assert objectives.evaluate(plan, q, cfg) == objectives.evaluate(plan, q, cfg)


def test_genome_evaluator_matches_evaluate():
    rng = random.Random(31)
    for trial in range(400):
        L = rng.randint(2, 6)
        lo = rng.randint(1, 20)
        as_given = rng.choice([int, float])  # JSON may give 60.0 for 60
        cfg = IntersectionConfig(
            num_links=L, min_green_s=lo,
            max_green_s=as_given(lo + rng.randint(0, 50)),
            inter_green_s=as_given(rng.randint(0, 5)),
            sat_flow_motorized=rng.choice([0.5, 0.37, 1.0, 1.3, 2.75]),
            sat_flow_non_motorized=rng.choice([0.25, 0.1, 0.61, 1.0]),
        )
        q = QueueState(
            motorized=tuple(rng.randint(0, 90) for _ in range(L)),
            non_motorized=tuple(rng.randint(0, 30) for _ in range(L)),
        )
        pad = rng.choice([0, 1, 2, 5])
        evaluate = objectives.genome_evaluator(q, cfg, pad)
        for _ in range(10):
            genome = tuple(rng.randint(0, cfg.max_green_s) for _ in range(L))
            want = objectives.evaluate(plan_from_genome(genome, cfg, pad), q, cfg)
            got = ObjectiveVector(*evaluate(genome))
            assert got == want, (trial, genome)
            assert type(got.f1) is type(want.f1), trial
            assert type(got.f2) is type(want.f2), trial


def test_genome_evaluator_rejects_dimension_mismatch():
    cfg = make_cfg(num_links=3)
    q = QueueState(motorized=(1, 1), non_motorized=(0, 0))
    with pytest.raises(ValueError, match="links"):
        objectives.genome_evaluator(q, cfg)
