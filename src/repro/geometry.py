"""Planar geometry primitives shared by placement, routing and Lily's cost model.

The paper works with a *point model* of gates (Section 3.1): every gate is a
single ``(x, y)`` coordinate, pins coincide with the gate centre.  All wire
estimates therefore reduce to geometry over points and axis-aligned
rectangles.  This module provides those primitives plus the two norms used in
Section 3.2 (Manhattan and Euclidean) and the separable-median solution of the
optimal point-location problem for the Manhattan norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "Point",
    "Rect",
    "manhattan",
    "euclidean",
    "bounding_rect",
    "center_of_mass",
    "median_point",
    "rect_distance_x",
    "rect_distance_y",
    "rect_manhattan_distance",
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

    def translated(self, dx: float, dy: float) -> "Point":
        """Return this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

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

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        """Return whether ``p`` lies inside the rectangle (inclusive)."""
        return (
            self.lx - tol <= p.x <= self.ux + tol
            and self.ly - tol <= p.y <= self.uy + tol
        )

    def expanded_to(self, p: Point) -> "Rect":
        """Return the smallest rectangle containing both ``self`` and ``p``."""
        return Rect(
            min(self.lx, p.x),
            min(self.ly, p.y),
            max(self.ux, p.x),
            max(self.uy, p.y),
        )

    def union(self, other: "Rect") -> "Rect":
        """Return the bounding box of two rectangles."""
        return Rect(
            min(self.lx, other.lx),
            min(self.ly, other.ly),
            max(self.ux, other.ux),
            max(self.uy, other.uy),
        )

    @staticmethod
    def from_point(p: Point) -> "Rect":
        """A degenerate (zero-area) rectangle at a single point."""
        return Rect(p.x, p.y, p.x, p.y)


def manhattan(a: Point, b: Point) -> float:
    """Manhattan (L1, rectilinear) distance between two points."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def euclidean(a: Point, b: Point) -> float:
    """Euclidean (L2) distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


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


def median_point(points: Sequence[Point]) -> Point:
    """Coordinate-wise median, the L1 analogue of the centre of mass."""
    if not points:
        raise ValueError("median_point() of an empty point set")
    return Point(_median([p.x for p in points]), _median([p.y for p in points]))


def rect_distance_x(x: float, r: Rect) -> float:
    """Horizontal distance from abscissa ``x`` to rectangle ``r``.

    This is the separable ``f(x)`` of Section 3.2 (up to the constant
    ``-|r.ux - r.lx|`` term, which the paper drops):

        ``f(x) = (|r.lx - x| + |r.ux - x| - (r.ux - r.lx)) / 2``

    It is zero when ``x`` lies within the rectangle's x-extent and grows
    linearly outside.  It is computed as ``max(r.lx - x, 0, x - r.ux)``,
    the same value without the cancellation that let a point inside read
    as a tiny negative distance.
    """
    return max(r.lx - x, 0.0, x - r.ux)


def rect_distance_y(y: float, r: Rect) -> float:
    """Vertical distance from ordinate ``y`` to rectangle ``r``."""
    return max(r.ly - y, 0.0, y - r.uy)


def rect_manhattan_distance(p: Point, r: Rect) -> float:
    """Manhattan distance from point ``p`` to rectangle ``r`` (0 if inside)."""
    return rect_distance_x(p.x, r) + rect_distance_y(p.y, r)


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
