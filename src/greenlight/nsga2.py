"""Constrained two-objective NSGA-II over integer green-time genomes.

The genome is one green duration per link, in seconds, clamped to the
config's [min_green_s, max_green_s]. Variation operators repair bounds, so
every individual is feasible. A run is fully deterministic given its seed.

A ``Planner`` is the one path from a queue snapshot to a plan, for
``optimize``, the adaptive controller and the pipeline alike: it calls
``run`` on the snapshot, then ``select_operating_point`` on the front, and
returns (front, plan, chosen ``Individual``).

A run keeps its population as flat per-slot lists (genomes, (f1, f2)
tuples, ranks, crowding distances); an ``Individual`` with an
``ObjectiveVector`` is built only for what leaves ``run``: the returned
front and the memo entries. ``fast_non_dominated_sort`` and
``crowding_distance`` work on (f1, f2) points.

Fronts come from a sort-and-sweep over (f1, f2) (Jensen 2003, IEEE TEC
7(5)) that ranks by bisection in O(n log n), not from pairwise comparison,
and genomes are scored from a per-link residual table
(``objectives.genome_evaluator``). Ranks, the order of members within each
front, and every random draw are those of the textbook O(n^2) sort (Deb et
al. 2002), so fronts and artifacts are byte-identical to that version. That
sort emits a member of front k+1 after the last front-k member dominating
it; those dominators form one slice of front k in (f1, f2) order, and the
slice only moves right along front k+1, so one two-pointer walk per front
places every member.

A run's front is front 0 of every point it evaluated. Each evaluated genome
sits in the initial or a combined population, so that set is exactly what a
non-dominated archive updated from each generation's front 0 would end
with; the run takes it once, from its point cache, after the last
generation.

A run's setting is one value, ``(params, num_links, min_green_s,
max_green_s)``, and no random draw depends on the queue: ``_draw_script``
makes the initial genomes, tournament candidates, crossover swap masks and
mutation redraws once per setting, on first use, from
``random.Random(rng_seed)`` in the order a run drawing as it goes would, and
keeps the last few settings; ``run`` replays the script, and
``tournament_select``, ``crossover`` and ``mutate`` apply draws they are
given. The script holds variation as index getters: a crossed pair's two
children are two ``operator.itemgetter``s over ``a + b``, and a mutated
child is one getter over ``g + consts``, the consts being its redrawn
greens, so each operator is a concatenation and a C-level pick. The
adaptive controller, which reruns one setting before every cycle, pays for
its draws once.

Survival reads only the fronts that fill the next population, so the
generation loop's sort orders no front past them. A ``Planner`` built with
``reuse_fronts`` owns a ``FrontMemo`` that it passes to every ``run``: light
queues that clear at min green give many cycles one objective map, and a
run on a setting and map the memo holds returns the stored front instead of
evolving it again. There is no module-level front cache.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import objectives
from .core import (
    REAL,
    ConfigError,
    IntersectionConfig,
    ListOf,
    ObjectiveVector,
    QueueState,
    Section,
    SignalPlan,
    setting,
)

Genome = tuple[int, ...]

INF = float("inf")


@dataclass
class Individual:
    genome: Genome
    objectives: ObjectiveVector

    def to_dict(self) -> dict:
        return {
            "genome": list(self.genome),
            "f1": self.objectives.f1,
            "f2": self.objectives.f2,
        }


@dataclass(frozen=True)
class OptimizerParams(Section):
    NAME = "optimizer"

    # The draw script and a run's point cache grow as P*G. At 1000 x 1000
    # on palashi5 (2-CPU x86-64 host) the script builds in ~6-9 s of CPU
    # and holds ~89 MiB, and a whole run takes ~12 s at a peak RSS of
    # ~216 MiB. At 60 x 100 the script holds ~440 KiB, at 40 x 40 ~170 KiB.
    population_size: int = setting(int, 60, low=4, high=1000)
    generations: int = setting(int, 100, low=1, high=1000)
    crossover_prob: float = setting(float, 0.9, low=0, high=1)
    # None -> 1/L. Kept as written: optimize manifests record a 1 as 1.
    mutation_prob: Optional[float] = setting(REAL, None, low=0, high=1)
    tournament_size: int = setting(int, 2, low=2)
    rng_seed: int = setting(int, 0, low=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.population_size % 2 != 0:
            raise ConfigError(
                f"population_size must be even, got {self.population_size}")


def fast_non_dominated_sort(
    points: Sequence[tuple], survivors: Optional[int] = None
) -> tuple[list[list[int]], list[int]]:
    """Pareto fronts of (f1, f2) points, as index lists, and each point's rank.

    Front 0 lists its members in index order. A member of front k+1 is
    placed by the front-k position of the last front-k member dominating
    it, then by index: the order in which the O(n^2) count-and-release sort
    of Deb et al. (2002) emits it, on which crowding ties, survivor
    truncation and tournament indices depend.

    With ``survivors``, the list stops at the first front that brings the
    members listed to at least that many, since survival reads no further;
    the rank of every point is still given.
    """
    n = len(points)
    ranks = [0] * n
    # Sweep in (f1, f2) order. Every point seen so far has f1 no greater,
    # so front k dominates a new point iff front k's lowest f2 is <= its f2;
    # those lowest f2 never fall with k, so the rank is a bisection. A
    # repeated point is not dominated by its twin and takes the twin's rank.
    stairs: list[list[int]] = []  # each front's members in (f1, f2) order
    lowest_f2: list = []
    prev = None
    rank = -1
    for i in sorted(range(n), key=points.__getitem__):
        p = points[i]
        if p != prev:
            prev = p
            rank = bisect_right(lowest_f2, p[1])
            if rank == len(lowest_f2):
                lowest_f2.append(p[1])
                stairs.append([])
            else:
                lowest_f2[rank] = p[1]
        stairs[rank].append(i)
        ranks[i] = rank
    if not n:
        return [], ranks

    fronts = [sorted(stairs[0])]
    listed = len(fronts[0])
    position = [0] * n
    for k in range(1, len(stairs)):
        if survivors is not None and listed >= survivors:
            break
        above, members = stairs[k - 1], stairs[k]
        listed += len(members)
        for j, i in enumerate(fronts[k - 1]):
            position[i] = j
        # Along both stairs f1 rises and f2 falls (twins aside). The members
        # of ``above`` dominating (a, b) are the slice from the first with
        # f2 <= b to the last with f1 <= a, so both ends only move right in
        # one walk; a twin takes the slice of the member before it.
        at = [position[i] for i in above]
        end = len(above)
        lo = hi = 0
        placed = []
        prev = None
        for i in members:
            p = points[i]
            if p != prev:
                prev = p
                a, b = p
                while hi < end and points[above[hi]][0] <= a:
                    hi += 1
                while points[above[lo]][1] > b:
                    lo += 1
                last = max(at[lo:hi])
            placed.append((last, i))
        placed.sort()
        fronts.append([i for _, i in placed])
    return fronts, ranks


def crowding_distance(points: Sequence[tuple]) -> list[float]:
    """Crowding distances of one non-dominated front of (f1, f2) points;
    extremes get +inf."""
    n = len(points)
    if n <= 2:
        return [INF] * n
    dists = [0.0] * n
    for vals in ([p[0] for p in points], [p[1] for p in points]):
        order = sorted(range(n), key=vals.__getitem__)
        lo, hi = vals[order[0]], vals[order[-1]]
        dists[order[0]] = INF
        dists[order[-1]] = INF
        span = hi - lo
        if span == 0:
            continue
        for before, i, after in zip(order, order[1:], order[2:]):
            if dists[i] == INF:
                continue
            dists[i] += (vals[after] - vals[before]) / span
    return dists


def tournament_select(
    ranks: Sequence[int], crowding: Sequence[float], candidates: Sequence[int]
) -> int:
    """Crowded-comparison winner among the drawn population indices: lower
    rank, then larger crowding, then lower index."""
    best = candidates[0]
    for other in candidates[1:]:
        if ranks[other] != ranks[best]:
            if ranks[other] < ranks[best]:
                best = other
        elif crowding[other] != crowding[best]:
            if crowding[other] > crowding[best]:
                best = other
        elif other < best:
            best = other
    return best


# A pair's crossing: None when no gene is exchanged, else the two children
# as getters over ``a + b``. A child's mutation: None when no gene is
# redrawn, else (``redraw_getter``, consts), the consts being the redrawn
# greens in position order.
Crossing = Optional[tuple[itemgetter, itemgetter]]
Mutation = Optional[tuple[itemgetter, tuple[int, ...]]]


def crossing(swap: int, num_links: int) -> Crossing:
    """The crossing that exchanges the genes whose bit is set in ``swap``."""
    if not swap:
        return None
    L = num_links
    flips = [swap >> i & 1 for i in range(L)]
    return (itemgetter(*(L * f + i for i, f in enumerate(flips))),
            itemgetter(*(L * (1 - f) + i for i, f in enumerate(flips))))


def redraw_getter(positions: Sequence[int], num_links: int) -> itemgetter:
    """The getter over ``g + consts`` that takes the j-th const at the j-th
    of the (ascending) ``positions`` and ``g``'s gene everywhere else."""
    at = dict(zip(positions, range(num_links, num_links + len(positions))))
    return itemgetter(*(at.get(i, i) for i in range(num_links)))


def crossover(a: Genome, b: Genome, swap: Crossing) -> tuple[Genome, Genome]:
    """The two children of a pair: ``a`` and ``b`` themselves, or the
    crossing's getters applied to ``a + b``."""
    if len(a) != len(b):
        raise ValueError("genomes must have equal length")
    if swap is None:
        return a, b
    ab = a + b
    return swap[0](ab), swap[1](ab)


def mutate(g: Genome, redraws: Mutation) -> Genome:
    """``g`` with its redrawn greens set: the mutation's getter applied to
    ``g + consts``."""
    if redraws is None:
        return g
    getter, consts = redraws
    return getter(g + consts)


@dataclass(frozen=True)
class _DrawScript:
    """Every random draw of one run, in the order the run consumes them.

    ``initial`` holds the starting genomes. ``generations[gen]`` is a flat
    tuple of five entries per offspring pair: both parents' tournament
    candidates, the pair's ``Crossing`` and each child's ``Mutation``.
    Equal candidate tuples, crossings, mutations, getters and consts are
    stored once.
    """

    initial: tuple[Genome, ...]
    generations: tuple[tuple, ...]


@lru_cache(maxsize=8)
def _draw_script(
    params: OptimizerParams, num_links: int, min_green_s: int, max_green_s: int
) -> _DrawScript:
    """The draws of every run with this setting, cached on the setting,
    from ``random.Random(params.rng_seed)``; a ``mutation_prob`` of None is
    1/L. The draw order is that of drawing inside the generation loop: per
    pair, two tournament samples, the crossover coin and per-gene swap
    coins, then each child's per-gene mutation coin, each followed by its
    redraw when it fires.
    """
    rng = random.Random(params.rng_seed)
    P, L = params.population_size, num_links
    mutation_prob = params.mutation_prob
    if mutation_prob is None:
        mutation_prob = 1.0 / L
    # Equal draws share one object: candidate and consts tuples by value,
    # crossings by swap mask, getters by positions, mutations by redraws.
    shared: dict = {}
    crossings: dict[int, Crossing] = {}
    getters: dict[tuple, itemgetter] = {}
    mutations: dict[tuple, Mutation] = {}

    def redraws() -> Mutation:
        drawn = []
        for i in range(L):
            if rng.random() < mutation_prob:
                drawn.append((i, rng.randint(min_green_s, max_green_s)))
        if not drawn:
            return None
        drawn = tuple(drawn)
        made = mutations.get(drawn)
        if made is None:
            at, consts = zip(*drawn)
            if at not in getters:
                getters[at] = redraw_getter(at, L)
            made = mutations[drawn] = (getters[at],
                                       shared.setdefault(consts, consts))
        return made

    initial = tuple(
        tuple(rng.randint(min_green_s, max_green_s) for _ in range(L))
        for _ in range(P)
    )
    k = min(params.tournament_size, P)
    script = []
    for _ in range(params.generations):
        steps: list = []
        for _ in range(P // 2):
            for _ in range(2):
                candidates = tuple(rng.sample(range(P), k))
                steps.append(shared.setdefault(candidates, candidates))
            swap = 0
            if rng.random() < params.crossover_prob:
                for i in range(L):
                    if rng.random() < 0.5:
                        swap |= 1 << i
            if swap not in crossings:
                crossings[swap] = crossing(swap, L)
            steps.append(crossings[swap])
            steps.append(redraws())
            steps.append(redraws())
        script.append(tuple(steps))
    return _DrawScript(initial, tuple(script))


def plan_from_genome(
    genome: Sequence[int], cfg: IntersectionConfig, guidance_pad_s: int = 0
) -> SignalPlan:
    """Wrap raw greens as a full cycle in fixed link order."""
    return SignalPlan(
        phases=tuple((i, int(g)) for i, g in enumerate(genome)),
        inter_green_s=cfg.inter_green_s,
        guidance_pad_s=guidance_pad_s,
    )


def _update_archive(points: dict[Genome, tuple]) -> list[Individual]:
    """Front 0 of a run's (f1, f2) points by genome, as Individuals sorted
    by (f1, f2, genome).

    ``run`` calls it once, on its point cache, after the last generation.
    The benchmark (``perfbench/run.py``) installs its ``nsga2.archive``
    span on this name, so the name stays.
    """
    # Many genomes share a point, so only the distinct points are sorted.
    distinct = list(set(points.values()))
    fronts, _ = fast_non_dominated_sort(distinct, 1)
    front = {distinct[i] for i in fronts[0]}
    return [Individual(g, ObjectiveVector(*p))
            for p, g in sorted((p, g) for g, p in points.items() if p in front)]


class _PointCache(dict):
    """(f1, f2) points by genome; a missing genome is evaluated once."""

    def __init__(self, evaluate: Callable[[Genome], tuple]):
        super().__init__()
        self.evaluate = evaluate

    def __missing__(self, genome: Genome) -> tuple:
        p = self[genome] = self.evaluate(genome)
        return p


# The most fronts a ``FrontMemo`` holds; the oldest entry goes first.
FRONT_MEMO_SIZE = 64

# Fronts of past runs, as (genome, ObjectiveVector) tuples, keyed by the
# optimizer setting and the objective map the run optimized.
FrontMemo = dict


def run(
    queue: QueueState,
    cfg: IntersectionConfig,
    params: OptimizerParams,
    guidance_pad_s: int = 0,
    memo: Optional[FrontMemo] = None,
) -> list[Individual]:
    """Evolve green-time plans against ``queue``; return the Pareto front.

    The returned front is front 0 of every genome the run evaluated, sorted
    by (f1, f2, genome) for reproducible output; the module's
    ``_update_archive`` takes it once from the point cache, after the last
    generation.

    A run is a pure function of its setting, ``(params, L, min_green_s,
    max_green_s)``, and of the objective map on in-bounds genomes (the
    evaluator's ``key``). A ``memo`` holding ``(*setting, key)`` gives back
    fresh individuals built from the stored front without evolving;
    any other run stores its front there, evicting the oldest entry once
    the memo holds ``FRONT_MEMO_SIZE``.
    """
    evaluate = objectives.genome_evaluator(queue, cfg, guidance_pad_s)
    setting = (params, cfg.num_links, cfg.min_green_s, cfg.max_green_s)
    if memo is not None:
        key = (*setting, evaluate.key)
        stored = memo.get(key)
        if stored is not None:
            return [Individual(g, obj) for g, obj in stored]
    script = _draw_script(*setting)
    P = params.population_size

    # The population is a table of slots: genome, (f1, f2) point, rank and
    # crowding distance, one list each. The genome space is small relative
    # to the evaluation count, so points are memoized per genome.
    point = _PointCache(evaluate)
    genomes = list(script.initial)
    points = [point[g] for g in genomes]
    fronts, ranks = fast_non_dominated_sort(points)
    crowding = [0.0] * P
    for f in fronts:
        for i, d in zip(f, crowding_distance([points[i] for i in f])):
            crowding[i] = d

    for steps in script.generations:
        # Offspring take slots P..2P-1 after their parents.
        draws = iter(steps)
        for candidates1, candidates2, swap, redraws1, redraws2 in zip(
            draws, draws, draws, draws, draws
        ):
            p1 = genomes[tournament_select(ranks, crowding, candidates1)]
            p2 = genomes[tournament_select(ranks, crowding, candidates2)]
            c1, c2 = crossover(p1, p2, swap)
            c1 = mutate(c1, redraws1)
            c2 = mutate(c2, redraws2)
            genomes += c1, c2
            points += point[c1], point[c2]

        fronts, all_ranks = fast_non_dominated_sort(points, P)
        chosen: list[int] = []
        crowding = []
        for f in fronts:
            dists = crowding_distance([points[i] for i in f])
            room = P - len(chosen)
            if len(f) > room:
                # The most crowded first, ties in front order.
                kept = sorted(range(len(f)), key=lambda j: -dists[j])[:room]
                f = [f[j] for j in kept]
                dists = [dists[j] for j in kept]
            chosen += f
            crowding += dists
            if len(chosen) == P:
                break
        genomes = [genomes[i] for i in chosen]
        points = [points[i] for i in chosen]
        ranks = [all_ranks[i] for i in chosen]

    front = _update_archive(point)
    if memo is not None and key not in memo:
        if len(memo) >= FRONT_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = tuple((ind.genome, ind.objectives) for ind in front)
    return front


POLICIES = ("knee", "weighted", "min_f1", "min_f2")


def select_operating_point(
    front: Sequence[Individual],
    policy: str,
    cfg: IntersectionConfig,
    guidance_pad_s: int = 0,
    weights: tuple[float, float] = (0.5, 0.5),
) -> SignalPlan:
    """Pick one plan from a Pareto front for execution.

    Policies: ``knee`` (closest to the ideal point in normalized objective
    space), ``weighted`` (min w1*f1' + w2*f2' over normalized objectives),
    ``min_f1``, ``min_f2``. Ties break by lower f1, then lower f2, then
    lexicographic genome.
    """
    if not front:
        raise ValueError("empty Pareto front")

    f1s = [ind.objectives.f1 for ind in front]
    f2s = [ind.objectives.f2 for ind in front]
    lo1, hi1 = min(f1s), max(f1s)
    lo2, hi2 = min(f2s), max(f2s)

    def norm(ind: Individual) -> tuple[float, float]:
        n1 = 0.0 if hi1 == lo1 else (ind.objectives.f1 - lo1) / (hi1 - lo1)
        n2 = 0.0 if hi2 == lo2 else (ind.objectives.f2 - lo2) / (hi2 - lo2)
        return n1, n2

    def tiebreak(ind: Individual):
        return (ind.objectives.f1, ind.objectives.f2, ind.genome)

    if policy == "knee":
        key = lambda ind: (math.hypot(*norm(ind)), *tiebreak(ind))
    elif policy == "weighted":
        w1, w2 = weights
        key = lambda ind: (
            w1 * norm(ind)[0] + w2 * norm(ind)[1],
            *tiebreak(ind),
        )
    elif policy == "min_f1":
        key = lambda ind: tiebreak(ind)
    elif policy == "min_f2":
        key = lambda ind: (ind.objectives.f2, ind.objectives.f1, ind.genome)
    else:
        raise ValueError(f"unknown selection policy {policy!r}")

    best = min(front, key=key)
    return plan_from_genome(best.genome, cfg, guidance_pad_s)


@dataclass
class Planner(Section):
    """Turns a queue snapshot into (Pareto front, plan, chosen individual).

    ``run`` and ``select_operating_point`` are looked up on this module at
    each call, so a wrapper installed on the module sees every plan made.
    The pad and weights are checked when the planner is built: each weight
    is >= 0, and not both are 0. With ``reuse_fronts`` the planner owns a
    ``FrontMemo``, so a snapshot whose objective map it has optimized
    before gets that front back without a new evolution.
    """

    NAME = "planner"

    cfg: IntersectionConfig = setting(IntersectionConfig)
    params: OptimizerParams = setting(
        OptimizerParams, factory=OptimizerParams)
    policy: str = setting(POLICIES, "knee")
    guidance_pad_s: int = setting(int, 0, low=0)
    weights: tuple[float, float] = setting(
        ListOf(REAL, size=2), (0.5, 0.5), low=0)
    reuse_fronts: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not any(self.weights):
            raise ConfigError(
                f"weights must not both be 0, got {list(self.weights)}")
        self._memo: Optional[FrontMemo] = {} if self.reuse_fronts else None

    def __call__(
        self, queue: QueueState
    ) -> tuple[list[Individual], SignalPlan, Individual]:
        front = run(queue, self.cfg, self.params, self.guidance_pad_s,
                    memo=self._memo)
        plan = select_operating_point(front, self.policy, self.cfg,
                                      self.guidance_pad_s, self.weights)
        chosen = next(ind for ind in front if ind.genome == plan.greens)
        return front, plan, chosen
