"""Planar geometry primitives shared by placement, routing and Lily's cost model.

The paper works with a *point model* of gates (Section 3.1): every gate is a
single ``(x, y)`` coordinate, pins coincide with the gate centre.  All wire
estimates therefore reduce to geometry over points and axis-aligned
rectangles.  This module provides those primitives, the Manhattan distance,
and the optimal point-location solutions of Section 3.2 for both norms: the
separable median (Manhattan) and the centre-of-centres approximation
(Euclidean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = [
    "Point",
    "Rect",
    "manhattan",
    "bounding_rect",
    "center_of_mass",
    "optimal_point_manhattan",
    "optimal_point_euclidean",
]


@dataclass(frozen=True)
class Point:
    """An immutable 2-D point.

    Gates in the point model, pad locations and placement positions are all
    represented as :class:`Point` instances.
    """

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle given by lower-left and upper-right corners.

    Used for the fanin/fanout enclosing rectangles of Section 3.3 and for
    placement regions during recursive bi-partitioning.
    """

    lx: float
    ly: float
    ux: float
    uy: float

    def __post_init__(self) -> None:
        if self.lx > self.ux or self.ly > self.uy:
            raise ValueError(
                f"malformed rectangle: ({self.lx},{self.ly})-({self.ux},{self.uy})"
            )

    @property
    def width(self) -> float:
        return self.ux - self.lx

    @property
    def height(self) -> float:
        return self.uy - self.ly

    @property
    def half_perimeter(self) -> float:
        """Half the perimeter: the HPWL of the points the rect encloses."""
        return self.width + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.lx + self.ux) / 2.0, (self.ly + self.uy) / 2.0)

    def union(self, other: "Rect") -> "Rect":
        """Return the bounding box of two rectangles."""
        return Rect(
            min(self.lx, other.lx),
            min(self.ly, other.ly),
            max(self.ux, other.ux),
            max(self.uy, other.uy),
        )

def manhattan(a: Point, b: Point) -> float:
    """Manhattan (L1, rectilinear) distance between two points."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def bounding_rect(points: Iterable[Point]) -> Rect:
    """Minimum enclosing rectangle of a non-empty point set (Section 3.3)."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding_rect() of an empty point set")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def center_of_mass(points: Sequence[Point]) -> Point:
    """Centre of mass of a non-empty point set (CM-of-Merged update)."""
    if not points:
        raise ValueError("center_of_mass() of an empty point set")
    n = float(len(points))
    return Point(sum(p.x for p in points) / n, sum(p.y for p in points) / n)


def _median(values: List[float]) -> float:
    """Median of a non-empty list; even counts take the interval midpoint."""
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    if n % 2 == 1:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2.0


def optimal_point_manhattan(rects: Sequence[Rect]) -> Point:
    """Point minimising the summed Manhattan distance to a set of rectangles.

    Section 3.2: in the Manhattan norm the distance function is separable in
    ``x`` and ``y``; dropping constants, the problem per axis reduces to
    minimising ``sum_i |z_i - z|`` where ``z_i`` ranges over the left *and*
    right (resp. bottom/top) corner coordinates of each rectangle.  The
    optimum is the median of that coordinate multiset — a special, linear-tree
    case of Hakimi's graph-median problem [1].
    """
    if not rects:
        raise ValueError("optimal_point_manhattan() of an empty rectangle set")
    xs: List[float] = []
    ys: List[float] = []
    for r in rects:
        xs.extend((r.lx, r.ux))
        ys.extend((r.ly, r.uy))
    return Point(_median(xs), _median(ys))


def optimal_point_euclidean(rects: Sequence[Rect]) -> Point:
    """Approximate Euclidean optimal point for a set of rectangles.

    The exact problem partitions the plane into ``N^2`` subregions, each a
    linearly-constrained quadratic program — too slow to run inside the
    mapper's inner loop (Section 3.2).  The paper's approximation, implemented
    here, replaces each rectangle by its centre point and returns the centre
    of mass of those centres.
    """
    if not rects:
        raise ValueError("optimal_point_euclidean() of an empty rectangle set")
    centers = [r.center for r in rects]
    return center_of_mass(centers)
