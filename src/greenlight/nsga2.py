"""Constrained two-objective NSGA-II over integer green-time genomes.

The genome is one green duration per link, in seconds, clamped to the
config's [min_green_s, max_green_s]. Variation operators repair bounds, so
every individual is feasible. A run is fully deterministic given its seed.

A ``Planner`` is the one path from a queue snapshot to a plan, for
``optimize``, the adaptive controller and the pipeline alike: it calls
``run`` on the snapshot, then ``select_operating_point`` on the front, and
returns (front, plan, chosen ``Individual``).

A run keeps its population as flat per-slot lists (genomes, packed points,
ranks, crowding distances); an ``Individual`` with an ``ObjectiveVector`` is
built only for what leaves ``run``: the returned front and the memo entries.
A packed point is one non-negative int, ``f1 << shift | f2``, from
``objectives.genome_evaluator``, whose ``shift`` is the bit length of the
largest f2 the config admits; ints order as (f1, f2) tuples do, so the
run's population table, sort and archive compare, sort and dedupe them
whole. f1 is read back as ``p >> shift`` and f2 as
``p & (1 << shift) - 1`` only where the sweep, the two-pointer walk, the
staircase and crowding need one objective, and for the returned front.
``fast_non_dominated_sort``, ``crowding_distance`` and ``_update_archive``
also take (f1, f2) pairs, which they pack first.

Fronts come from a sort-and-sweep over (f1, f2) (Jensen 2003, IEEE TEC
7(5)) that ranks by bisection in O(n log n), not from pairwise comparison,
and genomes are scored from a per-link residual table
(``objectives.genome_evaluator``). Ranks, the order of members within each
front, and every random draw are those of the textbook O(n^2) sort (Deb et
al. 2002), so fronts and artifacts are byte-identical to that version. That
sort emits a member of front k+1 after the last front-k member dominating
it; those dominators form one slice of front k in (f1, f2) order, and the
slice only moves right along front k+1, so one two-pointer walk per front
places every member. The sweep also leaves each front in (f1, f2) order,
which is the f1 order crowding reads, so ``run`` crowds each sorted
population in one call over those stairs. Crowding works per run of equal
points: a run's inner twins keep 0.0, its first and last members take
one-sided gaps and a lone member two-sided ones, and f2 is sorted once per
front over its run values, which fall along a stair, so the sort only
reverses them.

A run's front is front 0 of every point it evaluated. Each evaluated genome
sits in the initial or a combined population, so that set is exactly what a
non-dominated archive updated from each generation's front 0 would end
with. The run scores every child with the evaluator's ``packed``, with no
per-genome lookup, and keeps its evaluated genomes and their points as two
lists in evaluation order: the initial P, then P per generation, so the
front after any generation is front 0 of a prefix. After the last
generation it takes that front once, from a dict built from those lists,
in one staircase pass: in packed order a point is in front 0 iff its f2
is below every f2 before it.

A run's setting is one value, ``(params, num_links, min_green_s,
max_green_s)``, and no random draw depends on the queue: ``_draw_script``
makes the initial genomes, tournament candidates, crossover swap masks and
mutation redraws once per setting, on first use, from
``random.Random(rng_seed)`` in the order a run drawing as it goes would, and
keeps the last few settings; ``run`` replays the script, and
``tournament_select`` applies the candidates it is given. The script folds
each offspring pair's crossover and both mutations into two shared
``operator.itemgetter``s over ``p1 + p2 + consts``, the consts being the
pair's redrawn greens, so a pair's variation is one concatenation and two
C-level picks, and a pair whose children equal their parents holds None.
The getters are built by applying ``crossover`` and ``mutate`` to index
tuples, so those two functions stay the one statement of the operators;
``crossing`` and ``redraw_getter`` turn a swap mask or redrawn positions
into the getters they apply. The adaptive controller, which reruns one
setting before every cycle, pays for its draws once.

Survival reads only the fronts that fill the next population, so the
generation loop's sort orders no front past them, and the last generation's
offspring get no survival step, since the front is taken from every genome
evaluated.
A ``Planner`` built with
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
from typing import Collection, Optional, Sequence

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

    # The draw script and a run's evaluation lists grow as P*G. At
    # 1000 x 1000 on palashi5 (2-CPU x86-64 host) the script builds in
    # ~10-11 s of CPU, a run after it takes ~5.5 s, and the two peak at an
    # RSS of ~310 MiB. At 60 x 100 the script holds ~660 KiB, at 40 x 40
    # ~230 KiB (tracemalloc, after the build and a collection).
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


def _pack(pairs: Collection[tuple]) -> tuple[list[int], int]:
    """(f1, f2) pairs of non-negative ints as packed points, with their
    shift: the bit length of the largest f2."""
    shift = max((f2 for _, f2 in pairs), default=0).bit_length()
    return [f1 << shift | f2 for f1, f2 in pairs], shift


class Fronts(list):
    """Pareto fronts as index lists, each in the order the O(n^2) sort of
    Deb et al. (2002) emits its members. ``stairs`` holds the same fronts,
    each in (f1, f2) order, twins by index, as the sweep found them."""

    stairs: list[list[int]]


def fast_non_dominated_sort(
    points: Sequence, shift: Optional[int] = None,
    survivors: Optional[int] = None,
) -> tuple[Fronts, list[int]]:
    """Pareto fronts of packed points, as index lists, and each point's rank.

    ``points`` are packed with ``shift`` (see ``objectives``), or are
    (f1, f2) pairs when ``shift`` is None. Front 0 lists its members in
    index order. A member of front k+1 is placed by the front-k position of
    the last front-k member dominating it, then by index: the order in which
    the O(n^2) count-and-release sort of Deb et al. (2002) emits it, on
    which crowding ties, survivor truncation and tournament indices depend.

    With ``survivors``, the list stops at the first front that brings the
    members listed to at least that many, since survival reads no further;
    the rank of every point is still given.
    """
    if shift is None:
        points, shift = _pack(points)
    mask = (1 << shift) - 1
    n = len(points)
    ranks = [0] * n
    # Sweep in (f1, f2) order, which is packed order. Every point seen so
    # far has f1 no greater, so front k dominates a new point iff front k's
    # lowest f2 is <= its f2; those lowest f2 never fall with k, so the rank
    # is a bisection. A repeated point is not dominated by its twin and
    # takes the twin's rank.
    stairs: list[list[int]] = []  # each front's members in (f1, f2) order
    lowest_f2: list[int] = []
    prev = None
    rank = -1
    for i in sorted(range(n), key=points.__getitem__):
        p = points[i]
        if p != prev:
            prev = p
            f2 = p & mask
            rank = bisect_right(lowest_f2, f2)
            if rank == len(lowest_f2):
                lowest_f2.append(f2)
                stairs.append([])
            else:
                lowest_f2[rank] = f2
            stair = stairs[rank]
        stair.append(i)
        ranks[i] = rank

    fronts = Fronts(map(sorted, stairs[:1]))
    listed = sum(map(len, fronts))
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
        # f2 <= b to the last with f1 <= a (packed, at most a | mask), so
        # both ends only move right in one walk; a twin takes the slice of
        # the member before it.
        at = [position[i] for i in above]
        end = len(above)
        lo = hi = 0
        placed = []
        prev = None
        for i in members:
            p = points[i]
            if p != prev:
                prev = p
                a, b = p | mask, p & mask
                while hi < end and points[above[hi]] <= a:
                    hi += 1
                while points[above[lo]] & mask > b:
                    lo += 1
                last = max(at[lo:hi])
            placed.append((last, i))
        placed.sort()
        fronts.append([i for _, i in placed])
    fronts.stairs = stairs[:len(fronts)]
    return fronts, ranks


def crowding_distance(
    points: Sequence, shift: Optional[int] = None,
    fronts: Optional[Sequence[Sequence[int]]] = None,
) -> list[float]:
    """Each point's crowding distance within its listing (Deb et al. 2002).

    ``points`` are packed with ``shift``, or are (f1, f2) pairs when
    ``shift`` is None. ``fronts`` lists each front's point indices, and
    the points in no listed front get 0.0; without it, all the points, in
    index order, are one listing. ``run`` passes ``fronts.stairs``, every
    front of a sorted population in (f1, f2) order, so it crowds a
    population in one call.

    A listing of any points in any order is read as f1 order. Its first and
    last members get +inf, and every other member's f1 term is the f1 gap
    between its listed neighbours over the f1 gap between the listing's
    ends (0.0 when that is 0). Only f2 is sorted, stably, so ties keep
    their listed order: the first lowest and the last highest f2 get +inf,
    and every other member adds its f2 gap over the f2 range when that is
    not 0. A listing of at most two members is all +inf.
    """
    if shift is None:
        points, shift = _pack(points)
    n = len(points)
    mask = (1 << shift) - 1
    dist = [0.0] * n
    for front in ([range(n)] if fronts is None else fronts):
        if len(front) < 3:
            for i in front:
                dist[i] = INF
            continue
        # Consecutive equal points form a run. A run's inner members have a
        # twin on each side, in the listing and in the stable f2 order,
        # which keeps a run together, so both their terms are 0 and they
        # keep 0.0. Only a run's first and last member take a gap, one-sided
        # (the twin's side is 0), or its lone member a two-sided one.
        firsts, lasts, runs = [], [], []
        prev = None
        for i in front:
            p = points[i]
            if p != prev:
                prev = p
                firsts.append(i)
                lasts.append(i)
                runs.append(p)
            else:
                lasts[-1] = i
        dist[firsts[0]] = dist[lasts[-1]] = INF
        top = len(runs) - 1
        if not top:
            continue
        # Each term is one int gap over the span, f1's set first and f2's
        # added to it, as a pass per objective over the members would.
        f1s = [p >> shift for p in runs]
        span = f1s[-1] - f1s[0]
        if span:
            for k in range(top + 1):
                a, b = firsts[k], lasts[k]
                if a != b:
                    if k:
                        dist[a] = (f1s[k] - f1s[k - 1]) / span
                    if k < top:
                        dist[b] = (f1s[k + 1] - f1s[k]) / span
                elif 0 < k < top:
                    dist[a] = (f1s[k + 1] - f1s[k - 1]) / span
        # On a stair f2 falls from run to run, so this sort only reverses.
        f2s = [p & mask for p in runs]
        order = sorted(range(top + 1), key=f2s.__getitem__)
        lo, hi = order[0], order[-1]
        dist[firsts[lo]] = dist[lasts[hi]] = INF
        span = f2s[hi] - f2s[lo]
        if span:
            for t in range(top + 1):
                k = order[t]
                a, b = firsts[k], lasts[k]
                if a != b:
                    if t:
                        dist[a] += (f2s[k] - f2s[order[t - 1]]) / span
                    if t < top:
                        dist[b] += (f2s[order[t + 1]] - f2s[k]) / span
                elif 0 < t < top:
                    dist[a] += (f2s[order[t + 1]] - f2s[order[t - 1]]) / span
        elif f1s[-1] < f1s[0]:
            # A listing whose last f1 is below its first gives an inner twin
            # the f1 term 0 / span, which is -0.0, and no f2 term.
            ends = {*firsts, *lasts}
            for i in front:
                if i not in ends:
                    dist[i] = -0.0
    return dist


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


# An offspring pair's variation: None when neither child differs from its
# parent, else (g1, g2, consts), the children being ``g1(ab)`` and
# ``g2(ab)`` for ``ab = p1 + p2 + consts``, the consts being the pair's
# redrawn greens, the first child's before the second's.
Children = Optional[tuple[itemgetter, itemgetter, tuple[int, ...]]]


@dataclass(frozen=True)
class _DrawScript:
    """Every random draw of one run, in the order the run consumes them.

    ``initial`` holds the starting genomes. ``generations[gen]`` is a flat
    tuple of three entries per offspring pair: both parents' tournament
    candidates and the pair's ``Children``. Equal candidate tuples and
    getters are stored once.
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

    A pair's ``Children`` come from ``crossover`` and ``mutate`` applied to
    index tuples: the parents are ``0..L-1`` and ``L..2L-1``, and a child's
    redrawn greens are the indices of their consts in ``ab``, so each
    child's tuple is the getter's item list.
    """
    rng = random.Random(params.rng_seed)
    P, L = params.population_size, num_links
    mutation_prob = params.mutation_prob
    if mutation_prob is None:
        mutation_prob = 1.0 / L
    # Equal draws share one object: candidate tuples by value, getters by
    # the indices they take, a pair's two getters by its swap mask and
    # redrawn positions.
    shared: dict = {}
    getters: dict[tuple, itemgetter] = {}
    folds: dict[tuple, tuple[itemgetter, itemgetter]] = {}
    parents = tuple(range(L)), tuple(range(L, 2 * L))

    def redraws() -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One child's redrawn positions and their greens."""
        at, greens = [], []
        for i in range(L):
            if rng.random() < mutation_prob:
                at.append(i)
                greens.append(rng.randint(min_green_s, max_green_s))
        return tuple(at), tuple(greens)

    def fold(swap: int, at1: tuple, at2: tuple) -> tuple[itemgetter, ...]:
        """The getters of a pair's children over ``p1 + p2 + consts``."""
        children = crossover(*parents, crossing(swap, L))
        first, made = 2 * L, []
        for child, at in zip(children, (at1, at2)):
            if at:
                consts = tuple(range(first, first + len(at)))
                child = mutate(child, (redraw_getter(at, L), consts))
                first += len(at)
            if child not in getters:
                getters[child] = itemgetter(*child)
            made.append(getters[child])
        return tuple(made)

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
            at1, greens1 = redraws()
            at2, greens2 = redraws()
            children = None
            if swap or at1 or at2:
                key = swap, at1, at2
                if key not in folds:
                    folds[key] = fold(*key)
                children = (*folds[key], greens1 + greens2)
            steps.append(children)
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


def _update_archive(
    points: dict[Genome, int], shift: Optional[int] = None
) -> list[Individual]:
    """Front 0 of a run's points by genome, as Individuals sorted by
    (f1, f2, genome).

    The points are packed with ``shift``, or are (f1, f2) pairs when
    ``shift`` is None. ``run`` calls it once, on every genome it evaluated,
    after the last generation. The benchmark (``perfbench/run.py``)
    installs its ``nsga2.archive`` span on this name, so the name stays.
    """
    if shift is None:
        packed, shift = _pack(points.values())
        points = dict(zip(points, packed))
    mask = (1 << shift) - 1
    # In packed order, which is (f1, f2) order, a point is in front 0 iff
    # its f2 is below every f2 before it: one staircase pass. Many genomes
    # share a point, so only the distinct points are walked.
    front = set()
    lowest = mask + 1
    for p in sorted(set(points.values())):
        if p & mask < lowest:
            lowest = p & mask
            front.add(p)
    return [Individual(g, ObjectiveVector(p >> shift, p & mask))
            for p, g in sorted((p, g) for g, p in points.items() if p in front)]


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
    ``_update_archive`` takes it once from the run's evaluation lists,
    after the last generation.

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

    # The population is a table of slots: genome, packed point, rank and
    # crowding distance, one list each. ``evaluated`` and ``scores`` hold
    # every genome the run scores and its point, in evaluation order: the
    # initial P, then each generation's P offspring.
    shift, packed = evaluate.shift, evaluate.packed
    genomes = list(script.initial)
    points = list(map(packed, genomes))
    evaluated, scores = genomes[:], points[:]
    fronts, ranks = fast_non_dominated_sort(points, shift, P)
    crowding = crowding_distance(points, shift, fronts.stairs)

    for gen, steps in enumerate(script.generations):
        if gen:
            # Survival of the previous generation's 2P slots. The last
            # generation's offspring need none: the front is taken from
            # every genome evaluated.
            fronts, all_ranks = fast_non_dominated_sort(points, shift, P)
            dist = crowding_distance(points, shift, fronts.stairs)
            chosen: list[int] = []
            for f in fronts:
                room = P - len(chosen)
                if len(f) > room:
                    # The most crowded first, ties in front order.
                    f = sorted(f, key=dist.__getitem__, reverse=True)[:room]
                chosen += f
            genomes = [genomes[i] for i in chosen]
            points = [points[i] for i in chosen]
            ranks = [all_ranks[i] for i in chosen]
            crowding = [dist[i] for i in chosen]

        # Offspring take slots P..2P-1 after their parents.
        draws = iter(steps)
        for candidates1, candidates2, children in zip(draws, draws, draws):
            p1 = genomes[tournament_select(ranks, crowding, candidates1)]
            p2 = genomes[tournament_select(ranks, crowding, candidates2)]
            if children is None:
                genomes += p1, p2
            else:
                g1, g2, consts = children
                ab = p1 + p2 + consts
                genomes += g1(ab), g2(ab)
        offspring = genomes[P:]
        scored = list(map(packed, offspring))
        points += scored
        evaluated += offspring
        scores += scored

    front = _update_archive(dict(zip(evaluated, scores)), shift)
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
