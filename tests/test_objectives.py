import math
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


def empty_queue(num_links):
    return QueueState(motorized=(0,) * num_links, non_motorized=(0,) * num_links)


def f1_of(q, greens, cfg):
    return objectives.evaluate(plan_of(greens), q, cfg).f1


def f2_of(plan):
    return objectives.evaluate(plan, empty_queue(plan.num_links), make_cfg()).f2


class TestF1:
    def test_hand_example(self):
        # 10 s of green at 0.5/s drains 5 motorized; 0.25/s drains 2 non-motorized
        cfg = make_cfg()
        assert f1_of(QueueState(motorized=(10, 5), non_motorized=(3, 2)),
                     [10, 10], cfg) == 6
        # per link and class: link 0 keeps 5 motorized and 1 non-motorized,
        # link 1 keeps none
        for m, n, left in [((10, 0), (0, 0), 5), ((0, 0), (3, 0), 1),
                           ((0, 5), (0, 2), 0)]:
            q = QueueState(motorized=m, non_motorized=n)
            assert f1_of(q, [10, 10], cfg) == left

    def test_zero_queue_stays_zero(self):
        assert f1_of(empty_queue(2), [60, 5], make_cfg()) == 0

    @pytest.mark.parametrize("m, n", [
        ((7, 3), (2, 9)), ((5, 0), (1, 0)), ((0,), (0,)), ((1, 1, 1), (0, 0, 0)),
    ])
    def test_zero_green_leaves_whole_queue(self, m, n):
        q = QueueState(motorized=m, non_motorized=n)
        assert f1_of(q, [0] * len(m), make_cfg()) == q.total()

    def test_unserved_link_keeps_its_queue(self):
        q = QueueState(motorized=(10, 4), non_motorized=(3, 1))
        plan = SignalPlan(phases=((0, 10), (0, 10)))
        assert objectives.evaluate(plan, q, make_cfg()).f1 == 6 + 5

    def test_dimension_mismatch(self):
        q = QueueState(motorized=(1,), non_motorized=(1,))
        with pytest.raises(ValueError, match="links"):
            objectives.evaluate(plan_of([10, 10]), q, make_cfg())


class TestF2:
    def test_hand_example(self):
        # cycle 69 s; links red 59, 49 and 39 s
        plan = plan_of([10, 20, 30], inter_green=3)
        assert plan.cycle_length_s == 69
        assert f2_of(plan) == 59 + 49 + 39 == 147

    def test_single_link_never_red(self):
        assert f2_of(plan_of([15])) == 0

    def test_symmetric(self):
        assert f2_of(plan_of([10, 10])) == 10 + 10

    def test_doubling_greens_doubles_f2(self):
        assert f2_of(plan_of([20, 40, 60])) == 2 * f2_of(plan_of([10, 20, 30]))

    def test_closed_form(self):
        # (L-1) * sum(g) + L^2 * inter_green for pad 0: every link sits red
        # through all L clearance intervals
        greens = [12, 34, 7, 25]
        plan = plan_of(greens, inter_green=4)
        assert f2_of(plan) == 3 * sum(greens) + 4 * 4 * 4


class TestEvaluate:
    def test_composition(self):
        cfg = make_cfg()
        q = QueueState(motorized=(10, 5), non_motorized=(3, 2))
        plan = plan_of([10, 10])
        obj = objectives.evaluate(plan, q, cfg)
        assert obj.f1 == 6
        assert obj.f2 == f2_of(plan) == 20

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
def test_f1_monotone_in_queue(data):
    q, greens, cfg = data
    bigger = QueueState(
        motorized=tuple(v + 3 for v in q.motorized),
        non_motorized=tuple(v + 2 for v in q.non_motorized),
    )
    base = f1_of(q, greens, cfg)
    # each added vehicle leaves at most one more behind
    assert base <= f1_of(bigger, greens, cfg) <= base + 5 * q.num_links


@given(queue_plan_cfg())
def test_f1_bounds(data):
    q, greens, cfg = data
    val = f1_of(q, greens, cfg)
    total = q.total()
    capacity = sum(
        math.floor(cfg.sat_flow_motorized * g) + math.floor(
            cfg.sat_flow_non_motorized * g
        )
        for g in greens
    )
    assert max(0, total - capacity) <= val <= total


@given(queue_plan_cfg(), st.randoms())
def test_permutation_invariant(data, rnd):
    q, greens, cfg = data
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    order = list(range(len(greens)))
    rnd.shuffle(order)
    permuted = SignalPlan(
        phases=tuple(plan.phases[i] for i in order),
        inter_green_s=plan.inter_green_s,
    )
    assert objectives.evaluate(plan, q, cfg) == objectives.evaluate(permuted, q, cfg)


@given(queue_plan_cfg())
def test_evaluate_deterministic(data):
    q, greens, cfg = data
    plan = plan_of(greens, inter_green=cfg.inter_green_s)
    assert objectives.evaluate(plan, q, cfg) == objectives.evaluate(plan, q, cfg)


def genome_evaluator_cases():
    """(cfg, queue, pad, genomes): random small configs, then the widest f2
    a config admits (12 links, every green at max_green_s), which a
    packing shift one bit short carries into f1."""
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
        yield cfg, q, pad, [
            tuple(rng.randint(0, cfg.max_green_s) for _ in range(L))
            for _ in range(10)]
    wide = IntersectionConfig(num_links=12, max_green_s=3600, inter_green_s=50)
    q = QueueState(motorized=tuple(range(1795, 1807)),
                   non_motorized=tuple(range(895, 907)))
    yield wide, q, 5, [(3600,) * 12, (10,) * 12, tuple(range(0, 3600, 300))]


def test_genome_evaluator_matches_evaluate():
    for trial, (cfg, q, pad, genomes) in enumerate(genome_evaluator_cases()):
        score = objectives.genome_evaluator(q, cfg, pad)
        shift = score.shift
        points = score(genomes)
        for genome, p in zip(genomes, points):
            want = objectives.evaluate(plan_from_genome(genome, cfg, pad), q, cfg)
            got = ObjectiveVector(p >> shift, p & (1 << shift) - 1)
            assert got == want, (trial, genome)
            assert type(got.f1) is type(want.f1), trial
            assert type(got.f2) is type(want.f2), trial
        # A batch scores each genome as it would alone, from a list or an
        # iterator.
        assert points == [score([g])[0] for g in genomes], trial
        assert score(iter(genomes)) == points, trial

        # The front memo's key is the residual rows over the in-bounds
        # greens and the f2 constant, as before the constant was folded.
        L, lo, hi = cfg.num_links, cfg.min_green_s, cfg.max_green_s
        rows = tuple(
            tuple(max(0, m - math.floor(cfg.sat_flow_motorized * g))
                  + max(0, n - math.floor(cfg.sat_flow_non_motorized * g))
                  for g in range(lo, hi + 1))
            for m, n in zip(q.motorized, q.non_motorized))
        const = L * (L * cfg.inter_green_s + 2 * pad * (L - 1))
        assert score.key == (rows, const), trial


def test_genome_evaluator_rejects_dimension_mismatch():
    cfg = make_cfg(num_links=3)
    q = QueueState(motorized=(1, 1), non_motorized=(0, 0))
    with pytest.raises(ValueError, match="links"):
        objectives.genome_evaluator(q, cfg)
