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
A packed point is one non-negative int, ``f1 << shift | f2``, scored by
``objectives.genome_evaluator``, whose ``shift`` is the bit length of the
largest f2 the config admits; ints order as (f1, f2) tuples do, so the
run's population table, sort and archive compare, sort and dedupe them
whole. ``fast_non_dominated_sort``, ``crowding_distance`` and
``_update_archive`` take packed points and their ``shift``. f1 is read
back as ``p >> shift`` and f2 as ``p & (1 << shift) - 1`` only where the
sweep, the two-pointer walk, the staircase and crowding need one
objective, and for the returned front.

Fronts come from a sort-and-sweep over (f1, f2) (Jensen 2003, IEEE TEC
7(5)) that ranks by bisection in O(n log n), not from pairwise comparison,
and genomes are scored from a per-link residual table
(``objectives.genome_evaluator``). Ranks, the order of members within each
front, and every random draw are those of the textbook O(n^2) sort (Deb et
al. 2002), so fronts and artifacts are byte-identical to that version. That
sort emits a member of front k+1 after the last front-k member dominating
it; those dominators form one slice of front k in (f1, f2) order, and the
slice only moves right along front k+1, so one two-pointer walk per front
places every member. The walk is skipped where its answer is known, which
keeps the emitted order: when front k or front k+1 is one point (twins
aside), every member has the same last dominator, so front k+1 is listed
by index; when front k is listed in stair order, a member's last dominator
is the end of its slice, so only that end is walked. The sweep also leaves
each front in (f1, f2) order, which is the f1 order crowding reads, so
``run`` crowds each sorted population in one call over those stairs;
crowding one listing sorts it into that order first. Crowding works per run
of equal points: a run's inner twins keep 0.0, its first and last members
take one-sided gaps and a lone member two-sided ones, and f2 is sorted once
per front over its run values, which fall along a stair, so the sort only
reverses them.

A run's front is front 0 of every point it evaluated. Each evaluated genome
sits in the initial or a combined population, so that set is exactly what a
non-dominated archive updated from each generation's front 0 would end
with. The run scores each generation's children in one call to the
evaluator, one C-level pass with no per-genome lookup, and keeps one
map from each genome it evaluated to its point, in first-evaluation order,
so the front after generation g is front 0 of the map's first n_g entries,
n_g being its size after g. After the last generation it takes that front
once, from the map, in one staircase pass: in packed order a point is in
front 0 iff its f2 is below every f2 before it.

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
The getters are built by applying ``crossover``, which exchanges the
genes set in a swap mask, and ``mutate``, which sets redrawn greens at
their positions, to index tuples, so those two functions stay the one
statement of the operators. The adaptive controller, which reruns one
setting before every cycle, pays for its draws once.

Survival reads only the fronts that fill the next population, so the
generation loop's sort orders no front past them, and the last generation's
offspring get no survival step, since the front is taken from every genome
evaluated.
A ``Planner`` whose ``memo`` is a ``FrontMemo`` passes it to every ``run``:
light queues that clear at min green give many cycles one objective map,
and a run on a setting and map the memo holds returns the stored front
instead of evolving it again. The adaptive controller always sets one, the
pipeline in ``sim`` timing. There is no module-level front cache.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

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

    # The draw script grows as P*G, and a run's evaluation map as the
    # distinct genomes it scores. At 1000 x 1000 on palashi5 with
    # queue_sample (2-CPU x86-64 host) the script builds in ~7-8 s of CPU,
    # a run after it takes ~3.4-3.9 s, and the two peak at an RSS of
    # ~237 MiB. At 60 x 100 the script holds ~660 KiB, at 40 x 40 ~230 KiB
    # (tracemalloc, after the build and a collection).
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


class Fronts(list):
    """Pareto fronts as index lists, each in the order the O(n^2) sort of
    Deb et al. (2002) emits its members. ``stairs`` holds the same fronts,
    each in (f1, f2) order, twins by index, as the sweep found them."""

    stairs: list[list[int]]


def fast_non_dominated_sort(
    points: Sequence[int], shift: int, survivors: Optional[int] = None,
) -> tuple[Fronts, list[int]]:
    """Pareto fronts of packed points, as index lists, and each point's rank.

    ``points`` are packed with ``shift`` (see ``objectives``). Front 0
    lists its members in index order. A member of front k+1 is placed by
    the front-k position of the last front-k member dominating it, then by
    index: the order in which the O(n^2) count-and-release sort of Deb et
    al. (2002) emits it, on which crowding ties, survivor truncation and
    tournament indices depend.
    A walk along front k finds those positions. It is skipped when front k
    or front k+1 is one point, twins aside, since every member then has the
    same last dominator and index order is the emitted order; and when
    front k is listed in stair order, its positions are its stair indices,
    so a member's last dominator is the end of its dominating slice.

    With ``survivors``, the list stops at the first front that brings the
    members listed to at least that many, since survival reads no further;
    the rank of every point is still given.
    """
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
        if (points[above[0]] == points[above[-1]]
                or points[members[0]] == points[members[-1]]):
            # One point above dominates every member, or one point below
            # has one dominating slice: every member has the same last
            # dominator, so the order is by index.
            fronts.append(sorted(members))
            continue
        # Along both stairs f1 rises and f2 falls (twins aside). The members
        # of ``above`` dominating (a, b) are the slice from the first with
        # f2 <= b to the last with f1 <= a (packed, at most a | mask), so
        # both ends only move right in one walk; a twin takes the slice of
        # the member before it.
        end = len(above)
        lo = hi = 0
        placed = []
        if fronts[k - 1] == above:
            # Front k-1 is listed in stair order, so a member's last
            # dominator is its slice's end, hi - 1, and lo is not needed.
            for i in members:
                a = points[i] | mask
                while hi < end and points[above[hi]] <= a:
                    hi += 1
                placed.append((hi - 1, i))
        else:
            for j, i in enumerate(fronts[k - 1]):
                position[i] = j
            at = [position[i] for i in above]
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
    points: Sequence[int], shift: int,
    fronts: Optional[Sequence[Sequence[int]]] = None,
) -> list[float]:
    """Each point's crowding distance within its listing (Deb et al. 2002).

    ``points`` are packed with ``shift``. ``fronts`` lists each front's
    point indices, each in f1 order, and the points in no listed front get
    0.0. ``run`` passes ``fronts.stairs``, every front of a sorted
    population in (f1, f2) order, so it crowds a population in one call.
    Without ``fronts``, all the points are one listing in stair order:
    (f1, f2) order, twins by index.

    A listing's first and last members get +inf, and every other member's
    f1 term is the f1 gap between its listed neighbours over the f1 range
    (0.0 when that is 0). Only f2 is sorted, stably, so ties keep their
    listed order: the first lowest and the last highest f2 get +inf, and
    every other member adds its f2 gap over the f2 range when that is not
    0. A listing of at most two members is all +inf. No distance is
    negative.
    """
    n = len(points)
    mask = (1 << shift) - 1
    dist = [0.0] * n
    if fronts is None:
        fronts = [sorted(range(n), key=points.__getitem__)]
    for front in fronts:
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


def crossover(a: Genome, b: Genome, swap: int) -> tuple[Genome, Genome]:
    """The two children of a pair: ``a`` and ``b`` with the genes whose bit
    is set in ``swap`` exchanged."""
    if len(a) != len(b):
        raise ValueError("genomes must have equal length")
    flips = [swap >> i & 1 for i in range(len(a))]
    return (tuple(y if f else x for x, y, f in zip(a, b, flips)),
            tuple(x if f else y for x, y, f in zip(a, b, flips)))


def mutate(g: Genome, positions: Sequence[int],
           greens: Sequence[int]) -> Genome:
    """``g`` with the j-th of ``greens`` set at the j-th of ``positions``."""
    child = list(g)
    for i, green in zip(positions, greens):
        child[i] = green
    return tuple(child)


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
        first, made = 2 * L, []
        for child, at in zip(crossover(*parents, swap), (at1, at2)):
            child = mutate(child, at, range(first, first + len(at)))
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


def _update_archive(points: dict[Genome, int], shift: int) -> list[Individual]:
    """Front 0 of a run's points by genome, packed with ``shift``, as
    Individuals sorted by (f1, f2, genome).

    ``run`` calls it once, on every genome it evaluated, after the last
    generation. The benchmark (``perfbench/run.py``) installs its
    ``nsga2.archive`` span on this name, so the name stays.
    """
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
    ``_update_archive`` takes it once from the run's evaluation map,
    after the last generation.

    A run is a pure function of its setting, ``(params, L, min_green_s,
    max_green_s)``, and of the objective map on in-bounds genomes (the
    evaluator's ``key``). A ``memo`` holding ``(*setting, key)`` gives back
    fresh individuals built from the stored front without evolving;
    any other run stores its front there, evicting the oldest entry once
    the memo holds ``FRONT_MEMO_SIZE``.
    """
    score = objectives.genome_evaluator(queue, cfg, guidance_pad_s)
    setting = (params, cfg.num_links, cfg.min_green_s, cfg.max_green_s)
    if memo is not None:
        key = (*setting, score.key)
        stored = memo.get(key)
        if stored is not None:
            return [Individual(g, obj) for g, obj in stored]
    script = _draw_script(*setting)
    P = params.population_size

    # The population is a table of slots: genome, packed point, rank and
    # crowding distance, one sequence each. ``evaluated`` maps every genome
    # the run scores to its point, in first-evaluation order.
    shift = score.shift
    genomes = list(script.initial)
    points = score(genomes)
    evaluated = dict(zip(genomes, points))
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
            pick = itemgetter(*chosen)
            genomes, points = list(pick(genomes)), list(pick(points))
            ranks, crowding = pick(all_ranks), pick(dist)

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
        scored = score(offspring)
        points += scored
        evaluated.update(zip(offspring, scored))

    front = _update_archive(evaluated, shift)
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


@dataclass(eq=False)  # a planner may hold a memo: it is compared by identity
class Planner(Section):
    """Turns a queue snapshot into (Pareto front, plan, chosen individual).

    Its fields are the planner's settings, declared here once: the
    ``optimize`` config, the adaptive controller and the pipeline config
    are each a ``Planner``. ``run`` and ``select_operating_point`` are
    looked up on this module at each call, so a wrapper installed on the
    module sees every plan made. Each weight is >= 0, and not both are 0.
    ``memo``, when set to a ``FrontMemo``, is passed to every ``run``, so
    a snapshot whose objective map the planner has optimized before gets
    that front back without a new evolution; it is not a setting.
    """

    NAME = "planner"

    intersection: IntersectionConfig = setting(IntersectionConfig)
    optimizer: OptimizerParams = setting(
        OptimizerParams, factory=OptimizerParams)
    policy: str = setting(POLICIES, "knee")
    guidance_pad_s: int = setting(int, 0, low=0)
    weights: tuple[float, float] = setting(
        ListOf(REAL, size=2), (0.5, 0.5), error="weights must be two numbers")

    # Unannotated, so not a field: ``to_dict`` and the manifests leave it out.
    memo = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for w in self.weights:
            if w < 0:
                raise ConfigError(f"weights must be >= 0, got {w!r}")
        if not any(self.weights):
            raise ConfigError(
                f"weights must not both be 0, got {list(self.weights)}")

    def __call__(
        self, queue: QueueState
    ) -> tuple[list[Individual], SignalPlan, Individual]:
        front = run(queue, self.intersection, self.optimizer,
                    self.guidance_pad_s, memo=self.memo)
        plan = select_operating_point(front, self.policy, self.intersection,
                                      self.guidance_pad_s, self.weights)
        chosen = next(ind for ind in front if ind.genome == plan.greens)
        return front, plan, chosen
