"""Queue discharge model and the two cycle objectives.

f1 is the total residual congestion after every link consumes its green
time; f2 is the total red time across links, a proxy for waiting time.
Both are minimized by the optimizer. All functions here are pure.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, Sequence

from .core import IntersectionConfig, ObjectiveVector, QueueState, SignalPlan


def _check_dims(queue: QueueState, plan: SignalPlan) -> None:
    if queue.num_links != plan.num_links:
        raise ValueError(
            f"queue has {queue.num_links} links, plan serves {plan.num_links}"
        )


def discharge(
    queue: QueueState, plan: SignalPlan, cfg: IntersectionConfig
) -> QueueState:
    """Drain each link's queue at its class saturation rate for its green.

    Residual count per link and class is max(0, count - floor(rate * green)).
    Guidance padding does not discharge.
    """
    _check_dims(queue, plan)
    green_by_link = {l: g for l, g in plan.phases}
    motorized = []
    non_motorized = []
    for i in range(queue.num_links):
        g = green_by_link.get(i, 0)
        motorized.append(
            max(0, queue.motorized[i] - math.floor(cfg.sat_flow_motorized * g))
        )
        non_motorized.append(
            max(0, queue.non_motorized[i] - math.floor(cfg.sat_flow_non_motorized * g))
        )
    return QueueState(
        motorized=tuple(motorized),
        non_motorized=tuple(non_motorized),
        timestamp_ms=queue.timestamp_ms,
    )


def f1(updated_queue: QueueState) -> int:
    """Total vehicles (motorized + non-motorized) still queued across links."""
    return updated_queue.total()


def red_times(plan: SignalPlan, include_inter_green: bool = True) -> list[int]:
    """Per-link red seconds within one cycle.

    A link is red whenever it is not being served (green plus its guidance
    pads). With ``include_inter_green=False``, clearance intervals are not
    counted as red.
    """
    cycle = plan.cycle_length_s
    if not include_inter_green:
        cycle -= plan.num_links * plan.inter_green_s
    return [cycle - (g + 2 * plan.guidance_pad_s) for _, g in plan.phases]


def f2(plan: SignalPlan, include_inter_green: bool = True) -> int:
    """Total red time summed over links."""
    return sum(red_times(plan, include_inter_green=include_inter_green))


def evaluate(
    plan: SignalPlan,
    queue: QueueState,
    cfg: IntersectionConfig,
    queue_weighted_f2: bool = False,
    include_inter_green: bool = True,
) -> ObjectiveVector:
    """Evaluate one full cycle: (residual congestion, total red time).

    ``queue_weighted_f2`` weights each link's red time by its initial queue
    length instead of counting plain seconds; off by default.
    """
    _check_dims(queue, plan)
    residual = discharge(queue, plan, cfg)
    if queue_weighted_f2:
        reds = red_times(plan, include_inter_green=include_inter_green)
        weights = {
            l: queue.motorized[l] + queue.non_motorized[l] for l, _ in plan.phases
        }
        total_red = sum(r * weights[l] for r, (l, _) in zip(reds, plan.phases))
    else:
        total_red = f2(plan, include_inter_green=include_inter_green)
    return ObjectiveVector(f1=f1(residual), f2=total_red)


def genome_evaluator(
    queue: QueueState,
    cfg: IntersectionConfig,
    guidance_pad_s: int = 0,
    queue_weighted_f2: bool = False,
) -> Callable[[Sequence[int]], tuple]:
    """Return a function of a genome (one green per link, in link order).

    It gives, as a plain (f1, f2) tuple, the ``ObjectiveVector`` that
    ``evaluate`` gives on the plan that serves the links in order with those
    greens, ``guidance_pad_s`` and the config's inter-green, for any greens
    in [0, cfg.max_green_s]. f1 is read from a table of per-link residuals
    built once, and f2 is affine in the greens: with link weights w (queue
    lengths, or 1 for plain red time) and W = sum(w), it is
    sum((W - w_i) * g_i) + W * (L * inter_green + 2 * pad * (L - 1)).

    The function's ``key`` attribute is the map it computes on genomes
    within [cfg.min_green_s, cfg.max_green_s]: the residual rows over those
    greens, the f2 coefficients and the f2 constant. Two evaluators with
    equal keys score every such genome alike, so ``nsga2.run`` keys its
    front memo on it.
    """
    if queue.num_links != cfg.num_links:
        raise ValueError(
            f"queue has {queue.num_links} links, config expects {cfg.num_links}"
        )
    L = cfg.num_links
    # JSON configs may give the green bounds as integral floats (60.0).
    greens = range(int(cfg.max_green_s) + 1)
    residual = [
        [
            max(0, m - math.floor(cfg.sat_flow_motorized * g))
            + max(0, n - math.floor(cfg.sat_flow_non_motorized * g))
            for g in greens
        ]
        for m, n in zip(queue.motorized, queue.non_motorized)
    ]
    if queue_weighted_f2:
        weights = [m + n for m, n in zip(queue.motorized, queue.non_motorized)]
    else:
        weights = [1] * L
    total = sum(weights)
    coef = [total - w for w in weights]
    const = total * (L * cfg.inter_green_s + 2 * guidance_pad_s * (L - 1))

    def evaluate_genome(genome: Sequence[int]) -> tuple:
        return (
            sum(map(list.__getitem__, residual, genome)),
            sum(map(mul, coef, genome)) + const,
        )

    lo, hi = int(cfg.min_green_s), int(cfg.max_green_s)
    # 3 == 3.0, but an int and a float constant print differently.
    evaluate_genome.key = (
        tuple(tuple(row[lo:hi + 1]) for row in residual),
        tuple(coef),
        const,
        type(const),
    )
    return evaluate_genome
