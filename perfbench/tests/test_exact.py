"""The exact-front oracle against brute force and against the program."""

import itertools
import random

import pytest

import exact
from greenlight import nsga2, objectives
from greenlight.core import IntersectionConfig, QueueState


def brute_front(cfg: IntersectionConfig, queue: QueueState) -> set:
    """Non-dominated (f1, f2) points over every genome, by enumeration."""
    points = set()
    for genome in itertools.product(range(cfg.min_green_s, cfg.max_green_s + 1),
                                    repeat=cfg.num_links):
        obj = objectives.evaluate(nsga2.plan_from_genome(genome, cfg), queue, cfg)
        points.add((obj.f1, obj.f2))
    return {p for p in points if not any(exact.dominates(q, p) for q in points)}


def front_of(cfg, queue):
    return exact.exact_front(queue.motorized, queue.non_motorized, cfg.min_green_s,
                             cfg.max_green_s, cfg.inter_green_s,
                             cfg.sat_flow_motorized, cfg.sat_flow_non_motorized)


@pytest.mark.parametrize("case", range(12))
def test_matches_brute_force_on_small_configs(case):
    rng = random.Random(case)
    L = 2 + case % 2
    lo = rng.randint(1, 8)
    cfg = IntersectionConfig(
        num_links=L, min_green_s=lo, max_green_s=lo + rng.randint(3, 14 if L == 2 else 8),
        inter_green_s=rng.randint(0, 4),
        sat_flow_motorized=rng.choice([0.5, 0.7, 1.0, 1.3]),
        sat_flow_non_motorized=rng.choice([0.25, 0.4, 0.6]),
    )
    queue = QueueState(tuple(rng.randint(0, 20) for _ in range(L)),
                       tuple(rng.randint(0, 10) for _ in range(L)))
    assert {(f1, f2) for f1, f2, _ in front_of(cfg, queue)} == brute_front(cfg, queue)


def test_witnesses_reproduce_under_the_program():
    cfg = IntersectionConfig(num_links=5)  # palashi5's green bounds and rates
    queue = QueueState((42, 11, 27, 8, 19), (14, 3, 9, 2, 6))
    front = front_of(cfg, queue)
    assert len(front) > 50
    for f1, f2, genome in front:
        obj = objectives.evaluate(nsga2.plan_from_genome(genome, cfg), queue, cfg)
        assert (obj.f1, obj.f2) == (f1, f2)
        assert all(cfg.min_green_s <= g <= cfg.max_green_s for g in genome)


def test_nsga2_never_beats_the_exact_front():
    cfg = IntersectionConfig(num_links=5)
    queue = QueueState((42, 11, 27, 8, 19), (14, 3, 9, 2, 6))
    true = {(f1, f2) for f1, f2, _ in front_of(cfg, queue)}
    found = nsga2.run(queue, cfg, nsga2.OptimizerParams(generations=20))
    for ind in found:
        p = (ind.objectives.f1, ind.objectives.f2)
        assert not any(exact.dominates(p, t) for t in true)


def test_hypervolume():
    ref = (10, 10)
    assert exact.hypervolume([(2, 5)], ref) == 8 * 5
    # (2,5) and (5,2): union of two boxes minus their overlap.
    assert exact.hypervolume([(2, 5), (5, 2), (6, 6)], ref) == 8 * 5 + 5 * 3
    assert exact.hypervolume([], ref) == 0
