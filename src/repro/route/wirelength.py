"""Net-length estimation models (Section 3.4).

Lily implements two estimators and we reproduce both:

* half-perimeter of the enclosing rectangle, corrected by the worst-case
  ratio of minimal rectilinear Steiner tree length to half-perimeter from
  Chung & Hwang [3] (a function of pin count); and
* the length of a rectilinear spanning tree over the pins.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.geometry import Point, bounding_rect

__all__ = [
    "hpwl",
    "chung_hwang_factor",
    "steiner_estimate",
    "net_length_estimate",
    "netlist_hpwl",
    "netlist_hpwl_naive",
    "netlist_wirelength",
    "netlist_wirelength_naive",
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


def netlist_hpwl_naive(
    nets: Sequence[Sequence[str]],
    positions: Dict[str, Point],
    fixed: Dict[str, Point],
) -> float:
    """Total HPWL over a hypergraph, one Python fold per net.

    The reference for :func:`netlist_hpwl`: pins resolve through the
    movable positions first, then the fixed terminals; unlocatable pins
    are skipped and nets with fewer than two located pins contribute
    ``+0.0``.  Kept as the exactness oracle for the vectorized kernel
    (the randomized equivalence tests compare the two bitwise).
    """
    total = 0.0
    for net in nets:
        xs = []
        ys = []
        for pin in net:
            p = positions.get(pin)
            if p is None:
                p = fixed.get(pin)
                if p is None:
                    continue
            xs.append(p.x)
            ys.append(p.y)
        if len(xs) < 2:
            continue
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def netlist_hpwl(
    nets: Sequence[Sequence[str]],
    positions: Dict[str, Point],
    fixed: Dict[str, Point],
) -> float:
    """Total HPWL over a hypergraph (the placement cost function).

    The nets fold as one flat-pin-table index reduction
    (:class:`repro.perf.vec.PinTable`) with the per-net terms summed in
    naive net order — bitwise-equal to :func:`netlist_hpwl_naive`.
    """
    from repro.obs import OBS
    from repro.perf.vec import PinTable

    total = PinTable(nets, positions, fixed).total_hpwl()
    if OBS.enabled:
        OBS.metrics.counter("perf.vec.hpwl_folds").inc(len(nets))
    return total


def netlist_wirelength_naive(
    nets: Sequence[Sequence[str]],
    positions: Dict[str, Point],
    fixed: Dict[str, Point],
    model: str = "steiner",
) -> float:
    """Total estimated wirelength over a hypergraph, one net at a time.

    The exactness oracle for :func:`netlist_wirelength`: pins resolve
    through the movable positions first, then the fixed terminals;
    unlocatable pins are skipped and nets with fewer than two located
    pins contribute ``+0.0``.  ``model`` selects the per-net estimator
    of :func:`net_length_estimate`.
    """
    total = 0.0
    for net in nets:
        points = []
        for pin in net:
            p = positions.get(pin)
            if p is None:
                p = fixed.get(pin)
                if p is None:
                    continue
            points.append(p)
        if len(points) < 2:
            continue
        total += net_length_estimate(points, model)
    return total


def netlist_wirelength(
    nets: Sequence[Sequence[str]],
    positions: Dict[str, Point],
    fixed: Dict[str, Point],
    model: str = "steiner",
) -> float:
    """Total estimated wirelength over a hypergraph (vectorized).

    The nets fold as flat struct-of-arrays reductions over a
    :class:`repro.perf.vec.PinTable`: per-net bounding boxes via
    ``reduceat`` min/max (``hpwl``), the Chung–Hwang correction as one
    elementwise ``sqrt`` expression (``steiner``), or the batched Prim
    kernel :func:`repro.route.spanning.mst_lengths_batched`
    (``spanning``) — with the per-net terms summed in naive net order
    (:func:`repro.perf.vec.ordered_sum`), bitwise-equal to
    :func:`netlist_wirelength_naive`.
    """
    import numpy as np

    from repro.obs import OBS
    from repro.perf.vec import PinTable, ordered_sum

    table = PinTable(nets, positions, fixed)
    if model == "hpwl":
        lengths = table.hpwl()
    elif model == "steiner":
        counts = table.counts
        factor = np.where(
            counts <= 3,
            1.0,
            (np.sqrt(counts.astype(np.float64)) + 1.0) / 2.0,
        )
        lengths = table.hpwl() * factor
    elif model == "spanning":
        from repro.route.spanning import mst_lengths_batched

        lengths = mst_lengths_batched(
            table.x[table.pin_slots],
            table.y[table.pin_slots],
            table.offsets,
        )
    else:
        raise ValueError(f"unknown wire model: {model!r}")
    if OBS.enabled:
        OBS.metrics.counter("perf.vec.route_folds").inc(table.num_nets)
    return ordered_sum(lengths)


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
