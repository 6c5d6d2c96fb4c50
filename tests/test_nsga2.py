import bisect
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenlight import cli, nsga2, objectives
from greenlight.core import (
    ConfigError,
    IntersectionConfig,
    ObjectiveVector,
    QueueState,
    canonical_json,
    validate_plan,
)
from greenlight.nsga2 import (
    INF,
    Individual,
    OptimizerParams,
    crossover,
    crowding_distance,
    fast_non_dominated_sort,
    mutate,
    plan_from_genome,
    select_operating_point,
    tournament_select,
)


def ind(f1, f2, genome=(0,)):
    return Individual(genome=tuple(genome), objectives=ObjectiveVector(f1=f1, f2=f2))


def dominates(a, b):
    """True iff objective vector a is no worse in both objectives and
    strictly better in one."""
    return a.f1 <= b.f1 and a.f2 <= b.f2 and (a.f1 < b.f1 or a.f2 < b.f2)


def reference_sort(pop):
    """The O(n^2) count-and-release sort of Deb et al. (2002), verbatim as
    nsga2.fast_non_dominated_sort was before the sort-and-sweep, for front
    membership and ranks; each front is then relisted in stair order, by
    (point, index), the order the sweep lists it in."""
    n = len(pop)
    objs = [(ind.objectives.f1, ind.objectives.f2) for ind in pop]
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for p in range(n):
        a1, a2 = objs[p]
        for q in range(n):
            if p == q:
                continue
            b1, b2 = objs[q]
            if a1 <= b1 and a2 <= b2 and (a1 < b1 or a2 < b2):
                dominated_by[p].append(q)
            elif b1 <= a1 and b2 <= a2 and (b1 < a1 or b2 < a2):
                domination_count[p] += 1
        if domination_count[p] == 0:
            pop[p].rank = 0
            fronts[0].append(p)
    k = 0
    while fronts[k]:
        nxt = []
        for p in fronts[k]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    pop[q].rank = k + 1
                    nxt.append(q)
        fronts.append(nxt)
        k += 1
    fronts.pop()
    return [sorted(f, key=lambda i: (objs[i], i)) for f in fronts]


@dataclasses.dataclass
class ReferenceArchive:
    """nsga2._Archive and nsga2._update_archive verbatim as they were while
    the archive held Individuals, before the flat per-run tables."""

    points: list = dataclasses.field(default_factory=list)
    members: list = dataclasses.field(default_factory=list)

    def individuals(self):
        return [ind for group in self.members for ind in group.values()]

    def update(self, front):
        points, members = self.points, self.members
        for ind in front:
            p = (ind.objectives.f1, ind.objectives.f2)
            j = bisect.bisect_left(points, p)
            if j < len(points) and points[j] == p:
                if ind.genome not in members[j]:
                    members[j][ind.genome] = Individual(ind.genome, ind.objectives)
                continue
            if j and points[j - 1][1] <= p[1]:
                continue
            end = j
            while end < len(points) and points[end][1] >= p[1]:
                end += 1
            points[j:end] = [p]
            members[j:end] = [{ind.genome: Individual(ind.genome, ind.objectives)}]


def reference_better(pop, i, j):
    """nsga2._better verbatim, from before the flat per-run tables."""
    a, b = pop[i], pop[j]
    if a.rank != b.rank:
        return i if a.rank < b.rank else j
    if a.crowding != b.crowding:
        return i if a.crowding > b.crowding else j
    return min(i, j)


# The variation operators, crowding distance and generation loop verbatim
# as they were when every run drew from its own rng, before the draw script
# (the loop's module calls renamed to these copies: the O(n^2) sort, the
# archive and crowded comparison above, and ``objectives.evaluate`` on each
# genome's plan, the reference the table scorer is checked against). Their
# fronts are the contract the replay must keep.


def reference_crowding_distance(front):
    n = len(front)
    if n <= 2:
        dists = [INF] * n
    else:
        dists = [0.0] * n
        for key in (lambda ind: ind.objectives.f1, lambda ind: ind.objectives.f2):
            order = sorted(range(n), key=lambda i: key(front[i]))
            lo, hi = key(front[order[0]]), key(front[order[-1]])
            dists[order[0]] = INF
            dists[order[-1]] = INF
            span = hi - lo
            if span == 0:
                continue
            for j in range(1, n - 1):
                if dists[order[j]] == INF:
                    continue
                gap = key(front[order[j + 1]]) - key(front[order[j - 1]])
                dists[order[j]] += gap / span
    for ind, d in zip(front, dists):
        ind.crowding = d
    return dists


def reference_tournament_select(pop, k, rng):
    candidates = rng.sample(range(len(pop)), min(k, len(pop)))
    best = candidates[0]
    for other in candidates[1:]:
        best = reference_better(pop, best, other)
    return pop[best]


def reference_crossover(a, b, rng, crossover_prob=0.9):
    if len(a) != len(b):
        raise ValueError("genomes must have equal length")
    if rng.random() >= crossover_prob:
        return a, b
    c1, c2 = list(a), list(b)
    for i in range(len(a)):
        if rng.random() < 0.5:
            c1[i], c2[i] = c2[i], c1[i]
    return tuple(c1), tuple(c2)


def reference_mutate(g, rng, cfg, mutation_prob):
    out = list(g)
    for i in range(len(out)):
        if rng.random() < mutation_prob:
            out[i] = rng.randint(cfg.min_green_s, cfg.max_green_s)
    return tuple(out)


def reference_run(queue, cfg, params, guidance_pad_s=0):
    rng = random.Random(params.rng_seed)
    L = cfg.num_links
    mut_prob = params.mutation_prob if params.mutation_prob is not None else 1.0 / L

    # The genome space is small relative to the evaluation count; memoize.
    cache = {}

    def eval_genome(g):
        obj = cache.get(g)
        if obj is None:
            obj = cache[g] = objectives.evaluate(
                plan_from_genome(g, cfg, guidance_pad_s), queue, cfg)
        return Individual(genome=g, objectives=obj)

    pop = [
        eval_genome(
            tuple(rng.randint(cfg.min_green_s, cfg.max_green_s) for _ in range(L))
        )
        for _ in range(params.population_size)
    ]
    archive = ReferenceArchive()
    fronts = reference_sort(pop)
    for f in fronts:
        reference_crowding_distance([pop[i] for i in f])
    archive.update(pop[i] for i in fronts[0])

    for _ in range(params.generations):
        offspring = []
        while len(offspring) < params.population_size:
            p1 = reference_tournament_select(pop, params.tournament_size, rng)
            p2 = reference_tournament_select(pop, params.tournament_size, rng)
            c1, c2 = reference_crossover(p1.genome, p2.genome, rng,
                                         params.crossover_prob)
            offspring.append(eval_genome(reference_mutate(c1, rng, cfg, mut_prob)))
            offspring.append(eval_genome(reference_mutate(c2, rng, cfg, mut_prob)))

        combined = pop + offspring
        fronts = reference_sort(combined)
        archive.update(combined[i] for i in fronts[0])
        survivors = []
        for f in fronts:
            members = [combined[i] for i in f]
            reference_crowding_distance(members)
            if len(survivors) + len(members) <= params.population_size:
                survivors.extend(members)
            else:
                members.sort(key=lambda ind: -ind.crowding)
                survivors.extend(
                    members[: params.population_size - len(survivors)]
                )
                break
        pop = survivors

    front = sorted(
        archive.individuals(),
        key=lambda ind: (ind.objectives.f1, ind.objectives.f2, ind.genome),
    )
    for ind in front:
        ind.rank = 0
    return front


def pairs(front):
    """A front as its (genome, objectives) pairs, in order."""
    return [(i.genome, i.objectives) for i in front]


def script_of(params, cfg):
    """The draw script ``nsga2.run`` replays for ``params`` on ``cfg``."""
    return nsga2._draw_script(params, cfg.num_links, cfg.min_green_s,
                              cfg.max_green_s)


def script_steps(script):
    """(candidates1, candidates2, children) per offspring pair."""
    for steps in script.generations:
        yield from zip(*[iter(steps)] * 3)


def plain(entry):
    """A script or script entry with each getter replaced by the indices
    it takes, so that equal draws compare equal."""
    if isinstance(entry, nsga2._DrawScript):
        return plain(entry.initial), plain(entry.generations)
    if isinstance(entry, operator.itemgetter):
        return entry.__reduce__()[1]
    if isinstance(entry, tuple):
        return tuple(map(plain, entry))
    return entry


def unfold(children, L):
    """A pair's draws read back from its folded ``children`` by applying
    its getters to the index tuple of ``p1 + p2 + consts``: per gene, 1 if
    the crossover exchanged it, 0 if not, None where both children redraw
    it (and so hide it); then each child's (position, green) redraws."""
    if children is None:
        return [0] * L, [], []
    g1, g2, consts = children
    ab = tuple(range(2 * L + len(consts)))
    c1, c2 = g1(ab), g2(ab)
    swaps = []
    for i in range(L):
        assert c1[i] in (i, L + i) or c1[i] >= 2 * L
        assert c2[i] in (i, L + i) or c2[i] >= 2 * L
        swaps.append(int(c1[i] == L + i) if c1[i] < 2 * L
                     else int(c2[i] == i) if c2[i] < 2 * L else None)
    redraws = [[(i, consts[j - 2 * L]) for i, j in enumerate(c) if j >= 2 * L]
               for c in (c1, c2)]
    return swaps, *redraws


def packed(points):
    """(f1, f2) cases as packed points and their shift, packed as
    ``nsga2.run`` packs what it sorts and crowds: f1 << shift | f2. The
    shift here is the bit length of the largest f2 given, the least that
    keeps f2 out of f1."""
    shift = max((f2 for _, f2 in points), default=0).bit_length()
    return [f1 << shift | f2 for f1, f2 in points], shift


def random_points(rng, n):
    """n objective points with heavy ties, duplicates or a constant axis."""
    spans = (0, 1, 3, 10, 1000)
    s1, s2 = rng.choice(spans), rng.choice(spans)
    points = [(rng.randint(0, s1), rng.randint(0, s2)) for _ in range(n)]
    if rng.random() < 0.3:  # many exact duplicates
        pool = points[: max(1, n // 4)]
        points = [rng.choice(pool) for _ in range(n)]
    return points


def brute_force_front(queue, cfg):
    """Enumerate every genome and keep the non-dominated objective vectors."""
    objs = {}
    for genome in itertools.product(
        range(cfg.min_green_s, cfg.max_green_s + 1), repeat=cfg.num_links
    ):
        objs[genome] = objectives.evaluate(plan_from_genome(genome, cfg), queue, cfg)
    vals = list(objs.values())
    return {
        (o.f1, o.f2)
        for o in vals
        if not any(dominates(other, o) for other in vals)
    }


class TestFastNonDominatedSort:
    def test_two_fronts(self):
        points = [(1, 2), (2, 1), (3, 3)]
        assert fast_non_dominated_sort(*packed(points)) == (
            [[0, 1], [2]], [0, 0, 1])

    def test_identical_objectives_single_front(self):
        assert fast_non_dominated_sort(*packed([(5, 5)] * 4)) == (
            [[0, 1, 2, 3]], [0, 0, 0, 0])

    def test_matches_pairwise_oracle(self):
        rng = random.Random(42)
        for _ in range(20):
            objs = [
                ObjectiveVector(rng.choice([10, 20]), rng.choice([10, 20]))
                for _ in range(8)
            ]
            fronts, ranks = fast_non_dominated_sort(
                *packed([(o.f1, o.f2) for o in objs]))
            # O(n^2) oracle: rank = number of "strictly dominating layers"
            n = len(objs)
            dom = [[dominates(objs[i], objs[j]) for j in range(n)]
                   for i in range(n)]
            expected_rank = [0] * n
            assigned = [False] * n
            level = 0
            remaining = set(range(n))
            while remaining:
                layer = {
                    j for j in remaining
                    if not any(dom[i][j] for i in remaining)
                }
                for j in layer:
                    expected_rank[j] = level
                remaining -= layer
                level += 1
            for k, front in enumerate(fronts):
                for i in front:
                    assert expected_rank[i] == k
            assert ranks == expected_rank

    def test_same_fronts_in_same_order_as_reference(self):
        rng = random.Random(2003)
        for trial in range(1200):
            points = random_points(rng, rng.randint(1, 128))
            ref = [ind(*p, genome=(i,)) for i, p in enumerate(points)]
            full = reference_sort(ref)
            ranks = [p.rank for p in ref]
            assert fast_non_dominated_sort(*packed(points)) == (
                full, ranks), trial

            # Cut at a survivor count: the shortest prefix of the full
            # result holding that many members, and every rank still given.
            cut = rng.randint(1, len(points) + 1)
            got, got_ranks = fast_non_dominated_sort(*packed(points), cut)
            assert got == full[:len(got)], trial
            assert sum(map(len, got)) >= min(cut, len(points)), trial
            assert sum(map(len, got[:-1])) < cut, trial
            assert got_ranks == ranks, trial

    def test_empty_population(self):
        assert fast_non_dominated_sort(*packed([])) == ([], [])

    # Twin-heavy point sets: a few distinct points, each repeated. The
    # examples put twins at both ends of a front, and one point, lone or
    # twinned, above or below a front.
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=8)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                          max_size=60)),
           st.integers(1, 61))
    @example([(0, 4), (4, 0), (1, 5), (1, 5), (3, 3), (5, 1), (5, 1)], 3)
    @example([(1, 5), (0, 4), (5, 1), (4, 0), (5, 1), (1, 5), (3, 3)], 8)
    @example([(0, 3), (3, 0), (1, 4), (4, 1), (1, 4), (2, 5), (5, 2)], 2)
    @example([(3, 5), (2, 2), (5, 3), (3, 5), (4, 4), (6, 6), (6, 6)], 1)
    @example([(2, 2), (2, 2), (2, 2)], 1)
    def test_twin_heavy_points_in_stair_order(self, points, cut):
        ref = [ind(*p, genome=(i,)) for i, p in enumerate(points)]
        full = reference_sort(ref)
        ranks = [p.rank for p in ref]
        assert fast_non_dominated_sort(*packed(points)) == (full, ranks)
        got, got_ranks = fast_non_dominated_sort(*packed(points), cut)
        assert got == full[:len(got)]
        assert sum(map(len, got)) >= min(cut, len(points))
        assert sum(map(len, got[:-1])) < cut
        assert got_ranks == ranks

    # One constructed case per shape of front k and the front above it:
    # (points, k, shape). Each lists some front out of index order.
    @pytest.mark.parametrize("points, k, shape", [
        # Front 0 is one point, twice; front 1's stair order is [3, 2, 0].
        ([(5, 2), (1, 1), (3, 3), (2, 5), (1, 1), (6, 6)], 1, "one above"),
        # Front 0's stair order is [3, 2, 0]; front 1 is one point, twice.
        ([(5, 0), (6, 6), (2, 2), (0, 5), (6, 6)], 1, "one below"),
        # Front 1, in index order [0, 1, 2, 3], is over front 2, [5, 6, 4],
        # which is over front 3, [8, 7].
        ([(0, 9), (2, 6), (4, 3), (6, 0), (7, 2), (1, 10), (5, 5), (8, 6),
          (2, 12)], 2, "stair above"),
        # Front 0, [1, 2, 0], is over front 1, [5, 4, 6, 3], whose twins
        # 4 and 6 sit between other points.
        ([(6, 0), (0, 9), (4, 3), (7, 2), (5, 5), (1, 10), (5, 5)], 1,
         "twins within"),
    ])
    def test_each_placement_shape_in_stair_order(self, points, k, shape):
        ref = [ind(*p, genome=(i,)) for i, p in enumerate(points)]
        full = reference_sort(ref)
        ranks = [p.rank for p in ref]
        fronts, got_ranks = fast_non_dominated_sort(*packed(points))
        assert (fronts, got_ranks) == (full, ranks)

        # The case has the shape it is named for.
        def distinct(front):
            return len({points[i] for i in front})
        above, members = fronts[k - 1], fronts[k]
        got_shape = ("one above" if distinct(above) == 1
                     else "one below" if distinct(members) == 1
                     else "twins within"
                     if distinct(members) < len(members)
                     else "stair above")
        assert got_shape == shape
        # Every front is in (f1, f2) order, twins by index, and an
        # index-ordered listing would miss at least one of them.
        for front in fronts:
            assert front == sorted(front, key=lambda i: (points[i], i))
        assert any(front != sorted(front) for front in fronts)

        for cut in range(1, len(points) + 2):
            got, got_ranks = fast_non_dominated_sort(*packed(points), cut)
            assert got == full[:len(got)], cut
            assert sum(map(len, got)) >= min(cut, len(points)), cut
            assert sum(map(len, got[:-1])) < cut, cut
            assert got_ranks == ranks, cut


def bits(dists):
    """Distances as their exact bits: -0.0 differs from 0.0."""
    return [d.hex() for d in dists]


# Listings of (f1, f2) pairs: a few distinct points, each repeated, in any
# order, with one axis often constant; or distinct-heavy wide ones.
coords = st.integers(0, 6) | st.integers(0, 1000)
listings = (
    st.lists(st.tuples(coords, coords), min_size=1, max_size=8)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=60))
    | st.lists(st.tuples(coords, coords), max_size=40)
    | st.tuples(coords, st.lists(coords, max_size=12)).map(
        lambda c: [(c[0], f2) for f2 in c[1]])
    | st.tuples(coords, st.lists(coords, max_size=12)).map(
        lambda c: [(f1, c[0]) for f1 in c[1]]))


class TestCrowdingDistance:
    # One listing is crowded in stair order: the textbook distance over the
    # points in packed order, twins by index, scattered back by index. The
    # examples hold n = 0-3, twins at a listing's ends, lone members between
    # runs, constant axes, and listings whose f1 falls, which crowding once
    # read as f1 order and so gave negative distances.
    @settings(max_examples=600, deadline=None)
    @given(listings)
    @example([])
    @example([(1, 1)])
    @example([(2, 1), (1, 2)])
    @example([(3, 3), (3, 3), (3, 3)])
    @example([(1, 3), (1, 3), (2, 2), (3, 1), (3, 1)])
    @example([(1, 3), (1, 3), (1, 3), (2, 2), (3, 1), (3, 1)])
    @example([(0, 4), (0, 4), (0, 4), (2, 2), (4, 0), (4, 0), (4, 0)])
    @example([(5, 1), (3, 1), (3, 1), (3, 1), (0, 1)])
    @example([(5, 1), (3, 2), (3, 2), (3, 2), (0, 1)])
    @example([(2, 5), (2, 1), (2, 1), (2, 3), (2, 5)])
    @example([(4, 0), (1, 0), (1, 0), (6, 0), (6, 0)])
    def test_one_listing_as_the_textbook_distance_in_stair_order(self,
                                                                 points):
        order = sorted(range(len(points)), key=points.__getitem__)
        want = [0.0] * len(points)
        dists = reference_crowding_distance([ind(*points[i]) for i in order])
        for i, d in zip(order, dists):
            want[i] = d
        got = crowding_distance(*packed(points))
        assert bits(got) == bits(want)
        # No distance is negative, -0.0 included.
        assert all(math.copysign(1.0, d) == 1.0 for d in got)

    def test_unsorted_listing(self):
        points = [(0, 0), (9, 1), (1, 2), (5, 3)]
        assert crowding_distance(*packed(points)) == [
            INF, INF, 1.2222222222222223, INF]

    @settings(max_examples=400, deadline=None)
    @given(listings, st.integers(1, 61))
    @example([(0, 4), (4, 0), (1, 5), (1, 5), (3, 3), (5, 1), (5, 1)], 3)
    @example([(2, 2), (2, 2), (2, 2), (1, 3), (3, 1), (1, 3)], 1)
    def test_sorted_population_as_each_front_scattered_by_slot(self, points,
                                                              cut):
        fronts, _ = fast_non_dominated_sort(*packed(points), cut)
        want = [0.0] * len(points)
        for stair in fronts:
            dists = reference_crowding_distance([ind(*points[i])
                                                 for i in stair])
            for i, d in zip(stair, dists):
                want[i] = d
        assert bits(crowding_distance(*packed(points),
                                      fronts)) == bits(want)

    def test_three_point_front(self):
        assert crowding_distance(*packed([(1, 3), (2, 2), (3, 1)])) == [
            INF, 2.0, INF]

    def test_small_fronts_all_infinite(self):
        assert crowding_distance(*packed([(1, 1)])) == [INF]
        assert crowding_distance(*packed([(1, 2), (2, 1)])) == [INF, INF]

    def test_zero_range_objective_ignored(self):
        front = [(1, 7), (2, 7), (4, 7)]
        # f2 range is zero; distances come from f1 gaps alone
        assert crowding_distance(*packed(front)) == [
            INF, (4 - 1) / (4 - 1), INF]


class TestTournamentSelect:
    def test_lower_rank_wins(self):
        _, ranks = fast_non_dominated_sort(*packed([(1, 1), (2, 2)]))
        for candidates in ((0, 1), (1, 0)):
            assert ranks[tournament_select(ranks, [0.0, 0.0], candidates)] == 0

    def test_crowding_breaks_rank_ties(self):
        for candidates in ((0, 1), (1, 0)):
            assert tournament_select([0, 0], [INF, 0.5], candidates) == 0

    def test_lower_index_breaks_full_ties(self):
        assert tournament_select([0] * 4, [1.0] * 4, (3, 1, 2)) == 1

    def test_deterministic_given_seed(self):
        cfg = IntersectionConfig(num_links=3, min_green_s=10, max_green_s=30)
        points = [(i, 10 - i) for i in range(6)]
        _, ranks = fast_non_dominated_sort(*packed(points))
        crowding = crowding_distance(*packed(points))
        params = OptimizerParams(population_size=6, generations=5,
                                 tournament_size=3, rng_seed=9)
        # Built afresh, not taken from the cache: the same seed, the same draws.
        fresh = [nsga2._draw_script.__wrapped__(params, 3, 10, 30)
                 for _ in range(2)]
        assert plain(fresh[0]) == plain(fresh[1]) == plain(
            script_of(params, cfg))
        winners = [
            [tournament_select(ranks, crowding, c) for s in script_steps(script)
             for c in s[:2]]
            for script in fresh
        ]
        assert winners[0] == winners[1]

    def test_script_candidates_are_distinct_population_indices(self):
        cfg = IntersectionConfig(num_links=3, min_green_s=10, max_green_s=30)
        for P, k in ((4, 2), (4, 5), (10, 3)):
            params = OptimizerParams(population_size=P, generations=6,
                                     tournament_size=k, rng_seed=9)
            steps = list(script_steps(script_of(params, cfg)))
            assert len(steps) == 6 * P // 2
            for c1, c2, *_ in steps:
                for c in (c1, c2):
                    assert len(c) == len(set(c)) == min(k, P)
                    assert all(0 <= i < P for i in c)


def redrawn_script(params, L, lo, hi):
    """The initial genomes, then per offspring pair the two candidate
    tuples, the swap mask and each child's (positions, greens) redraws,
    redrawn from ``random.Random(rng_seed)`` in the order ``_draw_script``
    documents."""
    rng = random.Random(params.rng_seed)
    P = params.population_size
    mutation_prob = (1.0 / L if params.mutation_prob is None
                     else params.mutation_prob)
    initial = tuple(tuple(rng.randint(lo, hi) for _ in range(L))
                    for _ in range(P))
    pairs = []
    for _ in range(params.generations * P // 2):
        candidates = [tuple(rng.sample(range(P), min(params.tournament_size,
                                                     P)))
                      for _ in range(2)]
        swap = 0
        if rng.random() < params.crossover_prob:
            for i in range(L):
                if rng.random() < 0.5:
                    swap |= 1 << i
        redraws = []
        for _ in range(2):
            drawn = [(i, rng.randint(lo, hi)) for i in range(L)
                     if rng.random() < mutation_prob]
            redraws.append((tuple(i for i, _ in drawn),
                            tuple(green for _, green in drawn)))
        pairs.append((candidates, swap, redraws))
    return initial, pairs


class TestDrawScript:
    def test_folded_children_are_crossover_then_mutate(self):
        rng = random.Random(2028)
        for trial in range(300):
            L = rng.randint(2, 6)
            lo = rng.randint(1, 20)
            hi = lo + rng.choice([0, 1, 5, 40])
            params = OptimizerParams(
                population_size=2 * rng.randint(2, 8),
                generations=rng.randint(1, 4),
                crossover_prob=rng.choice([0.0, 1.0, rng.random()]),
                mutation_prob=rng.choice([0.0, 1.0, rng.random()]),
                tournament_size=rng.randint(2, 4),
                rng_seed=rng.randint(0, 10**6),
            )
            script = nsga2._draw_script(params, L, lo, hi)
            initial, pairs = redrawn_script(params, L, lo, hi)
            assert script.initial == initial, trial
            steps = list(script_steps(script))
            assert len(steps) == len(pairs), trial
            for (c1, c2, children), (candidates, swap, redraws) in zip(
                    steps, pairs):
                assert [c1, c2] == candidates, trial
                # Parents off the green range, so every gene is traceable.
                a, b = (tuple(rng.randint(-99, 999) for _ in range(L))
                        for _ in range(2))
                want = tuple(mutate(child, *r) for child, r in zip(
                    crossover(a, b, swap), redraws))
                if children is None:
                    got = a, b
                else:
                    g1, g2, consts = children
                    got = g1(a + b + consts), g2(a + b + consts)
                assert got == want, trial
                assert (children is None) == (
                    not swap and redraws == [((), ())] * 2), trial


class TestCrossover:
    def test_positionwise_exchange(self):
        for swap in range(4):
            c1, c2 = crossover((10, 20), (30, 40), swap)
            for i, (a, b) in enumerate(((10, 30), (20, 40))):
                assert (c1[i], c2[i]) == ((b, a) if swap >> i & 1 else (a, b))

    def test_probability_zero_copies_parents(self):
        cfg = IntersectionConfig(num_links=4, min_green_s=10, max_green_s=30)
        params = OptimizerParams(population_size=20, generations=10,
                                 crossover_prob=0.0, rng_seed=1)
        swaps = {bit for s in script_steps(script_of(params, cfg))
                 for bit in unfold(s[2], 4)[0]}
        assert swaps <= {0, None} and 0 in swaps
        assert crossover((10, 20), (30, 40), 0) == ((10, 20), (30, 40))

    def test_probability_one_swaps_about_half_the_genes(self):
        cfg = IntersectionConfig(num_links=4, min_green_s=10, max_green_s=30)
        params = OptimizerParams(population_size=40, generations=50,
                                 crossover_prob=1.0, rng_seed=1)
        # A gene both children redraw hides its swap coin; the coins are
        # drawn apart from the redraws, so the rest still show the share.
        bits = [bit for s in script_steps(script_of(params, cfg))
                for bit in unfold(s[2], 4)[0] if bit is not None]
        assert len(bits) > 0.9 * 4 * 50 * 20
        share = sum(bits) / len(bits)
        assert 0.45 < share < 0.55

    def test_identical_parents(self):
        assert crossover((5, 5), (5, 5), 3) == ((5, 5), (5, 5))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            crossover((1, 2), (1, 2, 3), 1)


class TestMutate:
    def test_probability_zero_is_identity(self):
        cfg = IntersectionConfig(num_links=2, min_green_s=10, max_green_s=30)
        params = OptimizerParams(population_size=20, generations=10,
                                 mutation_prob=0.0, rng_seed=0)
        steps = list(script_steps(script_of(params, cfg)))
        assert all(unfold(s[2], 2)[1:] == ([], []) for s in steps)
        assert all(s[2] is None or s[2][2] == () for s in steps)
        assert mutate((12, 25), (), ()) == (12, 25)

    def test_redraws_set_positions(self):
        assert mutate((1, 2, 3), (0, 2), (7, 9)) == (7, 2, 9)

    def test_full_mutation_uniform(self):
        # chi-square goodness of fit over 10k single-gene redraws
        from scipy.stats import chisquare

        cfg = IntersectionConfig(num_links=2, min_green_s=10, max_green_s=19)
        params = OptimizerParams(population_size=100, generations=100,
                                 mutation_prob=1.0, rng_seed=123)
        counts = {v: 0 for v in range(10, 20)}
        children = 0
        for step in script_steps(script_of(params, cfg)):
            for redraws in unfold(step[2], 2)[1:]:
                assert [i for i, _ in redraws] == [0, 1]
                g = [v for _, v in redraws]
                assert all(10 <= v <= 19 for v in g)
                counts[g[0]] += 1
                children += 1
        assert children == 10000
        stat, p = chisquare(list(counts.values()))
        assert p > 0.001

    def test_degenerate_range(self):
        cfg = IntersectionConfig(num_links=2, min_green_s=10, max_green_s=10)
        params = OptimizerParams(population_size=4, generations=3,
                                 mutation_prob=1.0, rng_seed=0)
        for step in script_steps(script_of(params, cfg)):
            for redraws in unfold(step[2], 2)[1:]:
                assert redraws == [(0, 10), (1, 10)]


class TestOptimizerParams:
    @pytest.mark.parametrize("kw", [
        {"population_size": 3},
        {"population_size": 5},
        {"generations": 0},
        {"crossover_prob": 1.5},
        {"mutation_prob": -0.1},
        {"tournament_size": 1},
    ])
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(ValueError):
            OptimizerParams(**kw)

    @pytest.mark.parametrize("d", [
        {"mutation_prob": "0.1"},
        {"crossover_prob": "0.9"},
        {"crossover_prob": None},
        {"population_size": 10.7},
        {"population_size": "40"},
        {"population_size": True},
        {"generations": float("inf")},
        {"tournament_size": float("nan")},
        {"rng_seed": [1]},
        {"mutation_prob": False},
        {"mutation_prob": 1.5},
    ])
    def test_mistyped_dict_rejected(self, d):
        with pytest.raises(ConfigError):
            OptimizerParams.from_dict(d)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerParams.from_dict([60, 100])

    def test_integral_numbers_accepted(self):
        p = OptimizerParams.from_dict(
            {"population_size": 40.0, "crossover_prob": 1, "mutation_prob": 1})
        assert p.population_size == 40 and type(p.population_size) is int
        assert p.crossover_prob == 1.0 and type(p.crossover_prob) is float
        assert p.mutation_prob == 1


def pairwise_front(points):
    """(point, genome) pairs of the genomes whose point no point dominates,
    sorted."""
    objs = {g: ObjectiveVector(*p) for g, p in points.items()}
    return sorted((p, g) for g, p in points.items()
                  if not any(dominates(o, objs[g]) for o in objs.values()))


class TestArchive:
    # Small coordinate ranges give duplicate points and ties on one objective.
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 30)),
                           st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           min_size=1, max_size=60))
    @example({(3,): (2, 2)})
    @example({(0,): (1, 4), (1,): (1, 4), (2,): (0, 6), (3,): (3, 1)})
    @example({(0,): (1, 4), (1,): (1, 3), (2,): (2, 3), (3,): (0, 3)})
    def test_front_0_of_the_points(self, points):
        cells, shift = packed(list(points.values()))
        front = nsga2._update_archive(dict(zip(points, cells)), shift)
        assert [((i.objectives.f1, i.objectives.f2), i.genome)
                for i in front] == pairwise_front(points)


    def test_staircase_keeps_front_0_of_the_sort(self):
        rng = random.Random(1979)
        for trial in range(600):
            points = random_points(rng, rng.randint(1, 128))
            fronts, _ = fast_non_dominated_sort(*packed(points))
            want = sorted((points[i], (i,)) for i in fronts[0])
            cells, shift = packed(points)
            front = nsga2._update_archive(
                {(i,): p for i, p in enumerate(cells)}, shift)
            assert [((i.objectives.f1, i.objectives.f2), i.genome)
                    for i in front] == want, trial


class TestRun:
    # One instance per link count L; greens 10..max_green, so the brute
    # force enumerates at most 6**4 genomes.
    @pytest.mark.parametrize("max_green, motorized, non_motorized", [
        (15, (50, 10), (0, 0)),
        (15, (50, 10, 25), (8, 2, 5)),
        (15, (50, 10, 25, 30), (8, 2, 5, 6)),
        (13, (42, 11, 27, 8, 19), (14, 3, 9, 2, 6)),  # queue_sample.json
        (12, (20, 30, 10, 5, 15, 25), (5, 8, 2, 1, 4, 6)),
    ], ids=["L2", "L3", "L4", "L5", "L6"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_small_instance(self, max_green, motorized,
                                                non_motorized, seed):
        cfg = IntersectionConfig(num_links=len(motorized), min_green_s=10,
                                 max_green_s=max_green, inter_green_s=3)
        queue = QueueState(motorized=motorized, non_motorized=non_motorized)
        expected = brute_force_front(queue, cfg)
        params = OptimizerParams(population_size=60, generations=100,
                                 rng_seed=seed)
        front = nsga2.run(queue, cfg, params)
        assert {(i.objectives.f1, i.objectives.f2) for i in front} == expected

    def test_all_genomes_valid_plans(self, two_link_cfg):
        queue = QueueState(motorized=(30, 5), non_motorized=(4, 1))
        params = OptimizerParams(population_size=20, generations=10, rng_seed=0)
        front = nsga2.run(queue, two_link_cfg, params)
        for i in front:
            assert validate_plan(plan_from_genome(i.genome, two_link_cfg),
                                 two_link_cfg) == []

    def test_zero_queue_contains_min_green_genome(self, two_link_cfg):
        queue = QueueState(motorized=(0, 0), non_motorized=(0, 0))
        params = OptimizerParams(population_size=20, generations=20, rng_seed=5)
        front = nsga2.run(queue, two_link_cfg, params)
        genomes = {i.genome for i in front}
        assert (two_link_cfg.min_green_s,) * 2 in genomes

    def test_seeded_twin_runs_identical(self, two_link_cfg):
        queue = QueueState(motorized=(30, 5), non_motorized=(4, 1))
        params = OptimizerParams(population_size=20, generations=15, rng_seed=11)
        f1 = nsga2.run(queue, two_link_cfg, params)
        f2 = nsga2.run(queue, two_link_cfg, params)
        assert pairs(f1) == pairs(f2)

    def test_front_mutually_non_dominated(self, two_link_cfg):
        queue = QueueState(motorized=(30, 5), non_motorized=(4, 1))
        params = OptimizerParams(population_size=20, generations=10, rng_seed=0)
        front = nsga2.run(queue, two_link_cfg, params)
        for a in front:
            for b in front:
                assert not dominates(a.objectives, b.objectives) or a is b

    def test_same_fronts_as_reference_run(self):
        rng = random.Random(2002)
        for trial in range(300):
            L = rng.randint(2, 6)
            lo = rng.randint(1, 20)
            cfg = IntersectionConfig(
                num_links=L, min_green_s=lo,
                max_green_s=lo + rng.choice([0, 1, 5, 20, 50]),
                inter_green_s=rng.randint(0, 5),
                sat_flow_motorized=rng.choice([0.25, 0.5, 0.7, 1.3]),
                sat_flow_non_motorized=rng.choice([0.25, 0.4, 1.0]),
            )
            params = OptimizerParams(
                population_size=2 * rng.randint(2, 20),
                generations=rng.randint(1, 12),
                crossover_prob=rng.choice([0.0, 1.0, 0.9, rng.random()]),
                mutation_prob=rng.choice([None, 0.0, 1.0, rng.random()]),
                tournament_size=rng.randint(2, 5),
                rng_seed=rng.randint(0, 10**6),
            )
            pad = rng.choice([0, 0, 1, 3])
            # The second queue replays the script cached by the first run.
            for queue in (self.random_queue(rng, L), self.random_queue(rng, L)):
                got = pairs(nsga2.run(queue, cfg, params, pad))
                want = pairs(reference_run(queue, cfg, params, pad))
                assert got == want, trial

    def test_many_fronts_same_as_reference_run(self):
        # Queues where every link but at most one clears at min green give
        # twin-heavy populations over many small fronts.
        rng = random.Random(1998)
        for trial in range(220):
            cfg, params = random_setting(rng)
            busy = [(rng.randrange(cfg.num_links),
                     (rng.randint(0, 90), rng.randint(0, 30)))][:rng.randint(0, 1)]
            queue = clearing_queue(rng, cfg, busy)
            pad = rng.choice([0, 0, 1, 3])
            got = pairs(nsga2.run(queue, cfg, params, pad))
            want = pairs(reference_run(queue, cfg, params, pad))
            assert got == want, trial

    def test_compare_maps_at_full_size_same_as_reference_run(
            self, assets_dir, tmp_path, monkeypatch):
        # The adaptive controller's 40x40 setting on the zero map and the
        # first one-link maps the bundled comparison's seed-1 run optimizes:
        # twin-heavy populations over many small fronts.
        scenario = assets_dir / "scenario_asymmetric.json"
        queues, run = [], nsga2.run

        def capturing(queue, *args, **kwargs):
            queues.append(queue)
            return run(queue, *args, **kwargs)

        monkeypatch.setattr(nsga2, "run", capturing)
        assert cli.main(["simulate", "--scenario", str(scenario), "--compare",
                         "--seed", "1", "--out", str(tmp_path / "1")]) == 0
        monkeypatch.undo()
        adaptive = json.loads(scenario.read_text())["controllers"][1]
        params = OptimizerParams.from_dict(adaptive["optimizer"])
        assert (params.population_size, params.generations) == (40, 40)
        cfg = IntersectionConfig.load(assets_dir / "palashi5.json")
        by_busy = {}
        for queue in queues:
            rows, _ = objectives.genome_evaluator(queue, cfg).key
            by_busy.setdefault(sum(map(any, rows)), {}).setdefault(
                rows, queue)
        maps = [*by_busy[0].values(), *list(by_busy[1].values())[:4]]
        assert len(maps) == 5
        for queue in maps:
            assert pairs(nsga2.run(queue, cfg, params)) == pairs(
                reference_run(queue, cfg, params)), queue

    def test_default_setting_on_sample_queue_same_as_reference_run(
            self, palashi_cfg, sample_queue):
        params = OptimizerParams()
        assert (params.population_size, params.generations) == (60, 100)
        assert pairs(nsga2.run(sample_queue, palashi_cfg, params)) == pairs(
            reference_run(sample_queue, palashi_cfg, params))

    @staticmethod
    def random_queue(rng, L):
        span = rng.choice([0, 3, 40, 150])
        return QueueState(
            motorized=tuple(rng.randint(0, span) for _ in range(L)),
            non_motorized=tuple(rng.randint(0, span // 3) for _ in range(L)),
        )

    def test_dimension_mismatch(self, two_link_cfg):
        queue = QueueState(motorized=(1, 1, 1), non_motorized=(0, 0, 0))
        with pytest.raises(ValueError, match="links"):
            nsga2.run(queue, two_link_cfg, OptimizerParams())


def front_of(queue, cfg, params, pad=0, memo=None):
    return nsga2.run(queue, cfg, params, guidance_pad_s=pad, memo=memo)


def random_setting(rng):
    L = rng.randint(2, 5)
    lo = rng.randint(2, 15)
    cfg = IntersectionConfig(
        num_links=L, min_green_s=lo, max_green_s=lo + rng.choice([0, 3, 20, 45]),
        inter_green_s=rng.randint(0, 5),
        sat_flow_motorized=rng.choice([0.5, 0.7, 1.3]),
        sat_flow_non_motorized=rng.choice([0.25, 0.4, 1.0]),
    )
    params = OptimizerParams(
        population_size=2 * rng.randint(2, 10),
        generations=rng.randint(1, 8),
        crossover_prob=rng.choice([0.0, 1.0, 0.9]),
        mutation_prob=rng.choice([None, 0.0, 1.0, rng.random()]),
        tournament_size=rng.randint(2, 4),
        rng_seed=rng.randint(0, 10**6),
    )
    return cfg, params


def clearing_queue(rng, cfg, busy=()):
    """A queue whose links, but those in ``busy``, clear at min green."""
    m_max = math.floor(cfg.sat_flow_motorized * cfg.min_green_s)
    n_max = math.floor(cfg.sat_flow_non_motorized * cfg.min_green_s)
    m = [rng.randint(0, m_max) for _ in range(cfg.num_links)]
    n = [rng.randint(0, n_max) for _ in range(cfg.num_links)]
    for i, (bm, bn) in busy:
        m[i], n[i] = bm, bn
    return QueueState(tuple(m), tuple(n))


class TestFrontMemo:
    def test_same_front_as_without_memo(self, evolutions):
        rng = random.Random(7)
        for trial in range(60):
            cfg, params = random_setting(rng)
            pad = rng.choice([0, 0, 2])
            queues = [TestRun.random_queue(rng, cfg.num_links)
                      for _ in range(3)]
            memo = {}
            for queue in queues + queues[::-1]:
                want = front_of(queue, cfg, params, pad)
                got = front_of(queue, cfg, params, pad, memo)
                assert got == want, trial
                assert canonical_json([i.to_dict() for i in got]) == (
                    canonical_json([i.to_dict() for i in want])), trial

    def test_queues_sharing_an_in_bounds_map_hit(self, evolutions):
        rng = random.Random(11)
        for trial in range(60):
            cfg, params = random_setting(rng)
            busy = [(i, (rng.randint(0, 90), rng.randint(0, 30)))
                    for i in range(cfg.num_links) if rng.random() < 0.4]
            a = clearing_queue(rng, cfg, busy)
            b = clearing_queue(rng, cfg, busy)
            memo = {}
            front_of(a, cfg, params, memo=memo)
            before = evolutions[0]
            assert front_of(b, cfg, params, memo=memo) == front_of(
                b, cfg, params), trial
            assert evolutions[0] == before + 1, trial  # only the memo-less run

    def test_settings_sharing_a_memo_keep_their_fronts(self):
        rng = random.Random(17)
        for trial in range(60):
            cfg, params = random_setting(rng)
            # A variant differing in one part of the setting; a zero queue
            # gives both the same residual rows, coefficients and constant.
            change = rng.choice(["rng_seed", "population_size", "generations",
                                 "crossover_prob", "mutation_prob",
                                 "tournament_size", "bounds", "float"])
            other_cfg, other_params = cfg, params
            if change == "bounds":
                other_cfg = dataclasses.replace(
                    cfg, min_green_s=cfg.min_green_s + 1,
                    max_green_s=cfg.max_green_s + 1)
            elif change == "float":  # loads as the int it equals
                other_cfg = dataclasses.replace(
                    cfg, inter_green_s=float(cfg.inter_green_s))
            else:
                value = {"rng_seed": params.rng_seed + 1,
                         "population_size": params.population_size + 2,
                         "generations": params.generations + 1,
                         "crossover_prob": 0.5,
                         "mutation_prob": 0.25,
                         "tournament_size": params.tournament_size + 1}[change]
                other_params = dataclasses.replace(params, **{change: value})
            zero = QueueState((0,) * cfg.num_links, (0,) * cfg.num_links)
            memo = {}
            for c, p in [(cfg, params), (other_cfg, other_params)] * 2:
                got = front_of(zero, c, p, memo=memo)
                want = front_of(zero, c, p)
                assert canonical_json([i.to_dict() for i in got]) == (
                    canonical_json([i.to_dict() for i in want])), (trial, change)

    def test_memo_never_exceeds_its_cap(self, two_link_cfg, evolutions):
        params = OptimizerParams(population_size=4, generations=1)
        memo = {}
        queues = [QueueState((100 + k, 0), (0, 0))
                  for k in range(nsga2.FRONT_MEMO_SIZE + 5)]
        for queue in queues:
            front_of(queue, two_link_cfg, params, memo=memo)
            assert len(memo) <= nsga2.FRONT_MEMO_SIZE
        assert len(memo) == nsga2.FRONT_MEMO_SIZE
        assert evolutions[0] == len(queues)
        front_of(queues[-1], two_link_cfg, params, memo=memo)  # newest: kept
        assert evolutions[0] == len(queues)
        front_of(queues[0], two_link_cfg, params, memo=memo)  # oldest: evicted
        assert evolutions[0] == len(queues) + 1

    def test_hit_returns_fresh_objects(self, two_link_cfg, evolutions):
        queue = QueueState((30, 5), (4, 1))
        params = OptimizerParams(population_size=12, generations=6)
        memo = {}
        first = front_of(queue, two_link_cfg, params, memo=memo)
        want = [dataclasses.replace(i) for i in first]
        second = front_of(queue, two_link_cfg, params, memo=memo)
        assert evolutions[0] == 1
        assert second == want
        assert all(a is not b for a, b in zip(first, second))
        for front in (first, second):
            front[0].genome = ()
            front.pop()
        assert front_of(queue, two_link_cfg, params, memo=memo) == want


class TestSelectOperatingPoint:
    def front3(self):
        return [
            ind(0, 100, genome=(10, 30)),
            ind(10, 50, genome=(20, 20)),
            ind(40, 40, genome=(30, 10)),
        ]

    def cfg(self):
        return IntersectionConfig(num_links=2, min_green_s=10, max_green_s=30)

    def test_knee_picks_balanced_point(self):
        plan = select_operating_point(self.front3(), "knee", self.cfg())
        assert plan.greens == (20, 20)

    def test_singleton_front(self):
        only = [ind(3, 4, genome=(15, 15))]
        for policy in ("knee", "min_f1", "min_f2", "weighted"):
            assert select_operating_point(only, policy, self.cfg()).greens == (15, 15)

    def test_weighted_all_on_f1(self):
        plan = select_operating_point(
            self.front3(), "weighted", self.cfg(), weights=(1.0, 0.0)
        )
        assert plan.greens == (10, 30)

    def test_min_policies(self):
        assert select_operating_point(self.front3(), "min_f1", self.cfg()).greens == (10, 30)
        assert select_operating_point(self.front3(), "min_f2", self.cfg()).greens == (30, 10)

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_operating_point([], "knee", self.cfg())

    def test_compare_asymmetric_queues_pinned(self, assets_dir, tmp_path,
                                              monkeypatch):
        # The queues the adaptive controller of the bundled comparison sees
        # on seeds 1-3; each one's 40x40 front and knee plan on palashi5.
        assert hashlib.sha256(
            canonical_json(compare_asymmetric_choices(assets_dir, tmp_path,
                                                      monkeypatch))
            .encode()).hexdigest() == (
            "58a3dcd5f41ebf995cf3e51b4f4aa72dc2796559ec0900e93bb87302120439df")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            select_operating_point(self.front3(), "nope", self.cfg())


def compare_asymmetric_choices(assets, tmp_path, monkeypatch):
    """Front and knee plan of nsga2.run, at the adaptive controller's 40x40
    setting, on each distinct queue it sees in ``simulate --compare`` on the
    bundled scenario, seeds 1-3."""
    scenario = assets / "scenario_asymmetric.json"
    queues, run = [], nsga2.run

    def capturing(queue, *args, **kwargs):
        queues.append(queue)
        return run(queue, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nsga2, "run", capturing)
        for seed in (1, 2, 3):
            assert cli.main(["simulate", "--scenario", str(scenario), "--compare",
                             "--seed", str(seed),
                             "--out", str(tmp_path / str(seed))]) == 0
    adaptive = json.loads(scenario.read_text())["controllers"][1]
    params = OptimizerParams.from_dict(adaptive["optimizer"])
    cfg = IntersectionConfig.load(assets / "palashi5.json")
    choices = []
    for queue in dict.fromkeys(queues):
        front = nsga2.run(queue, cfg, params)
        plan = select_operating_point(front, adaptive["policy"], cfg)
        choices.append({"queue": queue.to_dict(),
                        "front": [i.to_dict() for i in front],
                        "plan": plan.to_dict()})
    assert len(choices) == 39
    return choices
