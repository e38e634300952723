"""I/O pad placement on the chip boundary.

Prior to mapping, Lily fixes the positions of all primary inputs and
outputs (Section 3.1), using a bottom-up pad-assignment procedure driven by
the connectivity structure of the network [20].  We reproduce that with a
spectral method: I/O terminals are ordered by the Fiedler vector of their
affinity graph (terminals sharing logic cones attract) and assigned to
evenly spaced slots around the chip perimeter:
``pads_from_order(io_affinity_order(network), region)``.  The Section 5
sensitivity study (ablation A5) passes its own degraded orders to
:func:`pads_from_order`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from numpy.linalg import _umath_linalg

from repro.geometry import Point, Rect
from repro.obs import OBS

__all__ = ["perimeter_slots", "pads_from_order", "io_affinity_order"]


def perimeter_slots(region: Rect, count: int) -> List[Point]:
    """``count`` evenly spaced points around the region boundary.

    Slots start at the lower-left corner and run counter-clockwise.
    """
    if count <= 0:
        return []
    perimeter = 2.0 * (region.width + region.height)
    step = perimeter / count
    slots = []
    for i in range(count):
        d = i * step
        if d < region.width:
            slots.append(Point(region.lx + d, region.ly))
            continue
        d -= region.width
        if d < region.height:
            slots.append(Point(region.ux, region.ly + d))
            continue
        d -= region.height
        if d < region.width:
            slots.append(Point(region.ux - d, region.uy))
            continue
        d -= region.width
        slots.append(Point(region.lx, region.uy - d))
    return slots


def pads_from_order(order: List[str], region: Rect) -> Dict[str, Point]:
    """Place an already-ordered pad list on a region's perimeter."""
    slots = perimeter_slots(region, len(order))
    return {name: slot for name, slot in zip(order, slots)}


def io_affinity_order(network) -> List[str]:
    """Circular ordering of I/O terminals by connectivity (spectral).

    Affinity between two terminals is the number of logic cones they share:
    a PI and a PO are related if the PI is in the PO's transitive fanin;
    two PIs are related per common PO they feed.  The Fiedler vector of the
    affinity Laplacian gives a 1-D embedding whose order minimises (in the
    relaxed sense) the wire crossings of the boundary assignment.

    The affinities are the Gram product of the terminal x PO cone
    incidence matrix.  Its entries are small integers, exact in float64,
    so any summation order gives the same matrix.  The Laplacian is formed
    and decomposed in place (see :func:`_eigh_in_place`), holding about
    4 n^2 doubles at once.
    """
    with OBS.span("place.pad_order"):
        pis = [n.name for n in network.primary_inputs]
        pos = [n.name for n in network.primary_outputs]
        names = pis + pos
        n = len(names)
        if n <= 2:
            return names

        # incidence[t, k] = 1 when terminal t lies in PO k's cone: the PO
        # itself and every PI in its transitive fanin.
        pi_row = {name: i for i, name in enumerate(pis)}
        incidence = np.zeros((n, len(pos)))
        for po_idx, po in enumerate(network.primary_outputs):
            incidence[len(pis) + po_idx, po_idx] = 1.0
            for node in network.transitive_fanin([po]):
                row = pi_row.get(node.name)
                if row is not None:
                    incidence[row, po_idx] = 1.0

        laplacian = incidence @ incidence.T
        del incidence
        np.fill_diagonal(laplacian, 0.0)
        degree = laplacian.sum(axis=1)
        if not degree.any():
            return names
        # diag(degree) - weights over the weights' buffer.  Off the
        # diagonal this is 0.0 - w, not -w: zero weights must stay +0.0
        # for LAPACK to see the bits of the textbook formula.
        np.subtract(0.0, laplacian, out=laplacian)
        np.fill_diagonal(laplacian, degree)
        _eigh_in_place(laplacian)
        # Fiedler vector: eigenvector of the smallest non-trivial eigenvalue.
        fiedler = laplacian[:, 1].tolist()
        order = sorted(range(n), key=lambda i: (fiedler[i], names[i]))
        return [names[i] for i in order]


def _eigh_in_place(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigh(matrix)``, eigenvectors written over ``matrix``.

    Calls the gufunc ``np.linalg.eigh`` calls (LAPACK ``syevd`` on the
    lower triangle) with the input as its eigenvector output.  The gufunc
    copies its input into the LAPACK buffer before it writes an output,
    so the eigenvectors are bit for bit those of ``np.linalg.eigh``, and
    the n x n result array that ``eigh`` allocates is never needed.
    Returns the eigenvalues, ascending.
    """
    values = np.empty(len(matrix))
    with np.errstate(call=_no_convergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        _umath_linalg.eigh_lo(matrix, out=(values, matrix),
                              signature="d->dd")
    return values


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")
