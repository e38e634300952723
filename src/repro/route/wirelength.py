"""Net-length estimation models (Section 3.4).

Lily implements two estimators and we reproduce both:

* half-perimeter of the enclosing rectangle, corrected by the worst-case
  ratio of minimal rectilinear Steiner tree length to half-perimeter from
  Chung & Hwang [3] (a function of pin count); and
* the length of a rectilinear spanning tree over the pins.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry import Point, bounding_rect

__all__ = [
    "hpwl",
    "chung_hwang_factor",
    "steiner_estimate",
    "net_length_estimate",
]


def hpwl(points: Sequence[Point]) -> float:
    """Half-perimeter wirelength of a pin set (0 for fewer than 2 pins)."""
    if len(points) < 2:
        return 0.0
    return bounding_rect(points).half_perimeter


def chung_hwang_factor(num_pins: int) -> float:
    """Worst-case RSMT / half-perimeter ratio as a function of pin count.

    Chung and Hwang [3] bound the largest minimal rectilinear Steiner tree
    for ``n`` points in a rectangle: for 2 or 3 pins the tree never exceeds
    the half-perimeter (ratio 1); beyond that the worst case grows like
    ``(sqrt(n) + 1) / 2``.  Used to convert a bounding-box estimate into an
    expected routed length.
    """
    if num_pins <= 3:
        return 1.0
    return (math.sqrt(num_pins) + 1.0) / 2.0


def steiner_estimate(points: Sequence[Point]) -> float:
    """Half-perimeter x Chung–Hwang correction (Lily's default model)."""
    if len(points) < 2:
        return 0.0
    return hpwl(points) * chung_hwang_factor(len(points))


def net_length_estimate(points: Sequence[Point], model: str = "steiner") -> float:
    """Estimate a net's routed length under the selected model.

    ``model``: ``hpwl``, ``steiner`` (half-perimeter x Chung–Hwang) or
    ``spanning`` (rectilinear minimum spanning tree).
    """
    if model == "hpwl":
        return hpwl(points)
    if model == "steiner":
        return steiner_estimate(points)
    if model == "spanning":
        from repro.route.spanning import rectilinear_mst_length

        return rectilinear_mst_length(points)
    raise ValueError(f"unknown wire model: {model!r}")
