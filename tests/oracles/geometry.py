"""Point-to-rectangle geometry the position tests measure with.

:func:`rect_manhattan_distance` is the objective Section 3.2's optimal
point minimises: the summed Manhattan distance from a point to a set of
rectangles.  ``repro.geometry.optimal_point_manhattan`` and Lily's
CM-of-Fans update solve it by separable medians without evaluating it;
the optimality tests evaluate it here and compare candidates.
"""

from __future__ import annotations

from repro.geometry import Point, Rect


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


def contains(r: Rect, p: Point, tol: float = 0.0) -> bool:
    """Whether ``p`` lies inside ``r`` grown by ``tol`` (inclusive)."""
    return (r.lx - tol <= p.x <= r.ux + tol
            and r.ly - tol <= p.y <= r.uy + tol)
