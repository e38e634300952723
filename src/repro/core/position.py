"""Incremental mapPosition calculation (Section 3.2).

Two options, as in the paper:

* **CM-of-Merged** — place the match at the centre of mass of the subject
  nodes it covers, using their placePositions.  Always references the
  balanced global placement, so the evolving placement stays balanced;
  pessimistic because the gate position ignores its actual neighbours.
* **CM-of-Fans** — place the match at the point minimising the summed
  distance to its fanin and fanout rectangles.  Manhattan norm: the exact
  separable-median solution; Euclidean norm: the paper's centre-of-mass-of-
  rectangle-centres approximation (the exact problem needs N² constrained
  QPs — too slow inside the mapper).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.geometry import (
    Point,
    Rect,
    center_of_mass,
    optimal_point_euclidean,
    optimal_point_manhattan,
)
from repro.core.state import PlacementState
from repro.network.subject import SubjectNode

__all__ = ["cm_of_merged", "cm_of_fans"]


def cm_of_merged(
    covered: Iterable[SubjectNode], state: PlacementState
) -> Point:
    """Centre of mass of the covered nodes' placePositions.

    The coordinates are summed in the order given, which must be node-uid
    order, as a :attr:`~repro.match.treematch.Match.covered` tuple is.
    Float addition is not associative, so an order that follows memory
    addresses (a set's) would make the result change from run to run.
    """
    return center_of_mass([state.place_position(node) for node in covered])


def cm_of_fans(
    fanin_rects: Sequence[Rect],
    fanout_rect: Optional[Rect],
    norm: str = "manhattan",
) -> Point:
    """Optimal match position w.r.t. its fanin/fanout rectangles.

    Args:
        fanin_rects: one rectangle per match input net.
        fanout_rect: rectangle of the output net (``None`` if fully
            absorbed by the match).
        norm: ``manhattan`` (exact median solution) or ``euclidean``
            (centre-of-mass approximation).
    """
    rects: List[Rect] = list(fanin_rects)
    if fanout_rect is not None:
        rects.append(fanout_rect)
    if not rects:
        raise ValueError("cannot position a match with no fan rectangles")
    if norm == "manhattan":
        return optimal_point_manhattan(rects)
    if norm == "euclidean":
        return optimal_point_euclidean(rects)
    raise ValueError(f"unknown norm: {norm!r}")
