"""Half-perimeter net length and its Steiner correction (Section 3.4).

Lily implements two estimators and we reproduce both:

* half-perimeter of the enclosing rectangle (:func:`hpwl`), corrected by
  the worst-case ratio of minimal rectilinear Steiner tree length to
  half-perimeter from Chung & Hwang [3] (:func:`chung_hwang_factor`, a
  function of pin count); Lily's ``halfperim`` wire model and the wire
  capacitance of :func:`repro.timing.model.net_wire_capacitance` apply
  the two; and
* the length of a rectilinear spanning tree over the pins
  (:mod:`repro.route.spanning`).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.geometry import Point, bounding_rect

__all__ = [
    "hpwl",
    "chung_hwang_factor",
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
