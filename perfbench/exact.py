"""Exact Pareto front of the cycle objectives, and front-quality measures.

Without guidance padding (the benchmark's workloads use none), f2
depends on the greens only through their sum S:
    f2 = (L-1)*S + L^2*inter_green
and f1 is a sum of one step function per link. So the true front is a
min-plus DP over S: best[S] = min over genomes with sum S of f1, and a
point (best[S], f2(S)) is on the front iff best[S] is lower than best at
every smaller S. Ties are broken by the lexicographically smallest genome.

This module imports nothing from the program under test: it restates the
objective model on plain integers so that it can judge the optimizer.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def link_residuals(motorized: int, non_motorized: int, greens: range,
                   sat_m: float, sat_nm: float) -> np.ndarray:
    """Residual vehicles on one link for each green in ``greens``."""
    return np.array([
        max(0, motorized - math.floor(sat_m * g))
        + max(0, non_motorized - math.floor(sat_nm * g))
        for g in greens
    ], dtype=np.int64)


def f2_of_sum(total_green: int, num_links: int, inter_green: int) -> int:
    L = num_links
    return (L - 1) * total_green + L * L * inter_green


def exact_front(motorized: Sequence[int], non_motorized: Sequence[int],
                min_green: int, max_green: int, inter_green: int,
                sat_m: float, sat_nm: float) -> list[tuple[int, int, tuple[int, ...]]]:
    """Return the true Pareto front as (f1, f2, genome), ascending f2."""
    L = len(motorized)
    greens = range(min_green, max_green + 1)
    width = len(greens)
    res = [link_residuals(motorized[i], non_motorized[i], greens, sat_m, sat_nm)
           for i in range(L)]
    big = np.iinfo(np.int64).max // 4
    # suffix[i][s]: min residual of links i..L-1 whose greens sum to
    # (L-i)*min_green + s.
    suffix = [None] * (L + 1)
    suffix[L] = np.zeros(1, dtype=np.int64)
    for i in range(L - 1, -1, -1):
        nxt = suffix[i + 1]
        cur = np.full(len(nxt) + width - 1, big, dtype=np.int64)
        for k in range(width):
            seg = cur[k:k + len(nxt)]
            np.minimum(seg, nxt + res[i][k], out=seg)
        suffix[i] = cur

    front = []
    best_f1 = None
    for s, f1 in enumerate(suffix[0].tolist()):
        if best_f1 is not None and f1 >= best_f1:
            continue
        best_f1 = f1
        # Lexicographically smallest genome reaching f1 with this sum.
        genome, rem = [], s
        for i in range(L):
            nxt = suffix[i + 1]
            for k in range(width):
                r = rem - k
                if 0 <= r < len(nxt) and res[i][k] + nxt[r] == suffix[i][rem]:
                    genome.append(min_green + k)
                    rem = r
                    break
        total = L * min_green + s
        front.append((int(f1), f2_of_sum(total, L, inter_green), tuple(genome)))
    return front


def reference_point(motorized: Sequence[int], non_motorized: Sequence[int],
                    min_green: int, max_green: int, inter_green: int,
                    sat_m: float, sat_nm: float) -> tuple[int, int]:
    """One past the worst f1 (all greens minimal) and worst f2 (all maximal)."""
    L = len(motorized)
    worst_f1 = sum(
        int(link_residuals(motorized[i], non_motorized[i],
                           range(min_green, min_green + 1), sat_m, sat_nm)[0])
        for i in range(L)
    )
    return worst_f1 + 1, f2_of_sum(L * max_green, L, inter_green) + 1


def hypervolume(points: Iterable[tuple[float, float]], ref: tuple[float, float]) -> float:
    """2-D hypervolume (minimization) dominated by ``points`` up to ``ref``."""
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in sorted(set(points)):
        if f1 < ref[0] and f2 < prev_f2:
            hv += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return hv


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a != b
