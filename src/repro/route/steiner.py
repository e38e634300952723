"""Rectilinear Steiner minimal tree approximation (iterated 1-Steiner).

Used by tests to sanity-check the Chung–Hwang estimate and by the routing
reports.  Exact for 2–3 pins; larger nets run the classic iterated
1-Steiner heuristic over Hanan grid candidates (Kahng–Robins style), which
is within a few percent of optimal for the net sizes mapping produces.

The heuristic's cost is one MST evaluation per Hanan candidate per
round; those evaluations run as one batched Prim fold
(:func:`repro.route.spanning._prim_lengths_matrix`) whose per-candidate
lengths are bitwise-equal to scalar
:func:`~repro.route.spanning.rectilinear_mst_length` calls — identical
lengths mean identical candidate selections, so the heuristic returns
the exact result of a per-candidate scalar evaluation (the oracle of
``tests/route/test_vec_route.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.geometry import Point, manhattan
from repro.route.spanning import _prim_lengths_matrix, rectilinear_mst_length

__all__ = ["rsmt_length", "hanan_points"]

#: Nets larger than this skip the quadratic heuristic and use the MST.
MAX_PINS_FOR_1STEINER = 24


def hanan_points(points: Sequence[Point]) -> List[Point]:
    """The Hanan grid: intersections of pin x- and y-coordinates."""
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    existing = {(p.x, p.y) for p in points}
    return [
        Point(x, y) for x in xs for y in ys if (x, y) not in existing
    ]


def _candidate_lengths(
    base: Sequence[Point], candidates: Sequence[Point]
) -> List[float]:
    """MST length of ``base + [c]`` for each candidate ``c``.

    The base coordinates are shared across one ``(B, k+1)`` Prim batch;
    each row is bitwise-equal to the scalar evaluation of the same point
    list.
    """
    k = len(base)
    nrows = len(candidates)
    xs = np.empty((nrows, k + 1), dtype=np.float64)
    ys = np.empty((nrows, k + 1), dtype=np.float64)
    xs[:, :k] = [p.x for p in base]
    ys[:, :k] = [p.y for p in base]
    xs[:, k] = [c.x for c in candidates]
    ys[:, k] = [c.y for c in candidates]
    return _prim_lengths_matrix(xs, ys).tolist()


def _leave_one_out_lengths(
    terminals: Sequence[Point], kept: Sequence[Point]
) -> List[float]:
    """MST length of ``terminals + kept`` minus each kept point in turn."""
    t = len(terminals)
    m = len(kept)
    xs = np.empty((m, t + m - 1), dtype=np.float64)
    ys = np.empty((m, t + m - 1), dtype=np.float64)
    xs[:, :t] = [p.x for p in terminals]
    ys[:, :t] = [p.y for p in terminals]
    for i in range(m):
        rest = list(kept[:i]) + list(kept[i + 1:])
        xs[i, t:] = [p.x for p in rest]
        ys[i, t:] = [p.y for p in rest]
    return _prim_lengths_matrix(xs, ys).tolist()


def rsmt_length(points: Sequence[Point]) -> float:
    """Approximate rectilinear Steiner minimal tree length.

    2 pins: Manhattan distance.  3 pins: the median-point tree (optimal).
    Otherwise iterated 1-Steiner: repeatedly add the Hanan point that most
    reduces the MST length, until no candidate helps.  The candidate MST
    evaluations of each round run as one batch.
    """
    n = len(points)
    if n < 2:
        return 0.0
    if n == 2:
        return manhattan(points[0], points[1])
    if n == 3:
        xs = sorted(p.x for p in points)
        ys = sorted(p.y for p in points)
        median = Point(xs[1], ys[1])
        return sum(manhattan(p, median) for p in points)
    if n > MAX_PINS_FOR_1STEINER:
        return rectilinear_mst_length(points)

    terminals = list(points)
    steiner: List[Point] = []
    best = rectilinear_mst_length(terminals)
    while True:
        candidates = hanan_points(terminals + steiner)
        best_gain = 0.0
        best_candidate: Optional[Point] = None
        lengths = _candidate_lengths(terminals + steiner, candidates)
        for candidate, length in zip(candidates, lengths):
            gain = best - length
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = candidate
        if best_candidate is None:
            break
        steiner.append(best_candidate)
        best -= best_gain
        # Prune Steiner points that stopped helping (degree <= 2 effect is
        # approximated by re-evaluating the tree without each point).
        steiner = _prune(terminals, steiner, best)
    return best


def _prune(
    terminals: List[Point], steiner: List[Point], current: float
) -> List[Point]:
    kept = list(steiner)
    changed = True
    while changed:
        changed = False
        lengths = _leave_one_out_lengths(terminals, kept)
        for i, length in enumerate(lengths):
            if length <= current + 1e-12:
                kept = kept[:i] + kept[i + 1:]
                changed = True
                break
    return kept
