"""Queue discharge model and the two cycle objectives.

f1 is the total residual congestion after every link consumes its green
time; f2 is the total red time across links, a proxy for waiting time,
which for greens g is (L - 1) * sum(g) + L * (L * inter_green + 2 * pad *
(L - 1)). Both are minimized by the optimizer. All functions here are pure.

The optimizer scores a genome as one packed point, the non-negative int
``f1 << shift | f2``: ``genome_evaluator`` takes ``shift`` as the bit length
of the largest f2 its config admits (every green at max_green_s), so f2 never
carries into f1, and ints compare as (f1, f2) tuples do. ``nsga2`` reads f1
back as ``p >> shift`` and f2 as ``p & (1 << shift) - 1``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Sequence

from .core import IntersectionConfig, ObjectiveVector, QueueState, SignalPlan


def evaluate(
    plan: SignalPlan, queue: QueueState, cfg: IntersectionConfig
) -> ObjectiveVector:
    """Evaluate one full cycle: (residual congestion, total red time).

    f1 drains each link's queue at its class saturation rate for its green
    (0 if the plan does not serve the link; guidance pads do not discharge)
    and sums what is left: max(0, count - floor(rate * green)) per link and
    class. f2 sums each phase's red seconds: a link is red whenever it is not
    served (green plus its guidance pads), so clearance intervals count as
    red.
    """
    if queue.num_links != plan.num_links:
        raise ValueError(
            f"queue has {queue.num_links} links, plan serves {plan.num_links}"
        )
    green_by_link = dict(plan.phases)
    f1 = 0
    for i, (m, n) in enumerate(zip(queue.motorized, queue.non_motorized)):
        g = green_by_link.get(i, 0)
        f1 += (max(0, m - math.floor(cfg.sat_flow_motorized * g))
               + max(0, n - math.floor(cfg.sat_flow_non_motorized * g)))
    f2 = sum(plan.cycle_length_s - (g + 2 * plan.guidance_pad_s)
             for _, g in plan.phases)
    return ObjectiveVector(f1=f1, f2=f2)


@lru_cache(maxsize=16)
def discharge_table(
    sat_flow_motorized: float, sat_flow_non_motorized: float, max_green_s: int
) -> tuple[tuple[int, int], ...]:
    """(motorized, non-motorized) vehicles one link discharges in each green
    0..max_green_s: (floor(sat_m * g), floor(sat_nm * g)). ``simulate``
    discharges by it too."""
    return tuple(
        (math.floor(sat_flow_motorized * g),
         math.floor(sat_flow_non_motorized * g))
        for g in range(max_green_s + 1)
    )


def genome_evaluator(
    queue: QueueState, cfg: IntersectionConfig, guidance_pad_s: int = 0
) -> Callable[[Iterable[Sequence[int]]], list[int]]:
    """Return a scorer of genomes (one green per link, in link order).

    The scorer maps a sequence of genomes to the list of their packed
    points, ``f1 << shift | f2`` with its ``shift`` attribute, for any
    greens in [0, cfg.max_green_s]: (f1, f2) is the ``ObjectiveVector``
    that ``evaluate`` gives on the plan that serves the links in order with
    those greens, ``guidance_pad_s`` and the config's inter-green.

    f1 is read from a table of per-link residuals, max(0, m - a) +
    max(0, n - b) per green, where (a, b) is what the green discharges; that
    discharge table depends only on the saturation flows and max_green_s, so
    it is computed once per such triple and kept for the last few. f2 is
    affine in the greens: every link is red through the other links' greens
    and pads and through all L clearances, so f2 = (L - 1) * sum(g) +
    L * (L * inter_green + 2 * pad * (L - 1)). Each packed cell holds a
    link's residual shifted up plus its (L - 1) * g share of f2, and link 0's
    cells also hold the constant, so a packed point is the plain sum of one
    cell per link, and the scorer sums them in one C-level pass over the
    genomes.

    The scorer's ``key`` attribute is the map it computes on genomes
    within [cfg.min_green_s, cfg.max_green_s] for its L: the residual rows
    over those greens and the f2 constant. Two scorers with equal keys
    and L score every such genome alike, so ``nsga2.run`` keys its front
    memo on it.
    """
    if queue.num_links != cfg.num_links:
        raise ValueError(
            f"queue has {queue.num_links} links, config expects {cfg.num_links}"
        )
    L = cfg.num_links
    table = discharge_table(cfg.sat_flow_motorized,
                             cfg.sat_flow_non_motorized, cfg.max_green_s)
    residual = [
        [(m - a if a < m else 0) + (n - b if b < n else 0) for a, b in table]
        for m, n in zip(queue.motorized, queue.non_motorized)
    ]
    const = L * (L * cfg.inter_green_s + 2 * guidance_pad_s * (L - 1))
    shift = ((L - 1) * L * cfg.max_green_s + const).bit_length()
    cells = [[(r << shift) + (L - 1) * g for g, r in enumerate(row)]
             for row in residual]
    cells[0] = [c + const for c in cells[0]]

    def score(genomes: Iterable[Sequence[int]]) -> list[int]:
        return list(map(sum, map(map, repeat(list.__getitem__),
                                 repeat(cells), genomes)))

    lo, hi = cfg.min_green_s, cfg.max_green_s
    score.shift = shift
    score.key = (tuple(tuple(row[lo:hi + 1]) for row in residual), const)
    return score
