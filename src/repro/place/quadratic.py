"""Quadratic (analytical) placement.

The GORDIAN engine of [21]: minimise the squared-Euclidean wirelength
``sum_nets w_net * ((x_i - x_j)^2 + (y_i - y_j)^2)`` over all pin pairs of
each net (clique model) subject to fixed pad positions.  The objective is
separable in x and y; each axis reduces to one sparse SPD linear system
``L x = b`` over the same ``L``, solved with conjugate gradients (small
systems: one sparse LU factorization serves both axes).

Repeated solves over the same netlist (the partitioning levels of the
global placer, Lily's periodic re-place) share a :class:`QuadraticSystem`:
anchors only ever touch the diagonal and the right-hand side, so the
O(pins²) net traversal is done once and every re-solve assembles a
bitwise-identical matrix from the cached off-diagonal terms.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.geometry import Point, Rect
from repro.place.hypergraph import PlacementNetlist

__all__ = [
    "QuadraticSystem",
    "CLIQUE_STAR_LIMIT",
]

#: Weak spring to the region centre keeping unconnected cells well-defined.
ANCHOR_EPSILON = 1e-6

#: Systems up to this many cells are solved directly (SuperLU), larger
#: ones with conjugate gradients.
DIRECT_SOLVE_LIMIT = 400

#: Pin count above which a net falls back from clique to star edges
#: (driver to each sink, keeping the ``2 / |net|`` pair weight so the
#: net's total pull stays comparable): the clique expansion is O(k²)
#: edges, which blows up on high-fanout nets (clock/reset-like) while
#: adding no placement information a star does not.  33 pins ≈ 528
#: clique edges vs 32 star edges.
CLIQUE_STAR_LIMIT = 33


class QuadraticSystem:
    """Cached assembly of the quadratic placement system for one netlist.

    A build-once part (the net traversal with its clique expansion, the
    base diagonal and right-hand sides) and a cheap per-solve part
    (anchor application, diagonal append, CSR assembly, linear solve).
    Anchors add only diagonal and rhs terms, so every :meth:`solve`
    produces the same matrix — in the same floating-point operation
    order — as a fresh system's with the same anchors.
    """

    def __init__(self, netlist: PlacementNetlist, region: Rect) -> None:
        """Build the system with the struct-of-arrays assembly.

        :func:`repro.perf.vec.assemble_quadratic` produces the diagonal,
        right-hand sides and off-diagonal streams bitwise-equal to a
        per-edge build (the randomized oracle tests assert exact
        equality).
        """
        from repro.obs import OBS
        from repro.perf.vec import assemble_quadratic

        self.netlist = netlist
        self.region = region
        n = netlist.num_movable
        self.n = n
        self.index = {name: i for i, name in enumerate(netlist.movables)}
        self._center = region.center
        if not n:
            return
        diag, bx, by, rows, cols, vals = assemble_quadratic(
            netlist.nets, self.index, netlist.fixed, n, self._center,
            CLIQUE_STAR_LIMIT, ANCHOR_EPSILON,
        )
        self._diag = diag
        self._bx = bx
        self._by = by
        self._rows = rows
        self._cols = cols
        self._vals = vals
        if OBS.enabled:
            OBS.metrics.counter("perf.vec.quad_assemblies").inc()
            OBS.metrics.counter("perf.vec.quad_edges").inc(len(vals))

    def solve(
        self,
        anchors: Optional[Dict[str, Tuple[Point, float]]] = None,
        initial: Optional[Dict[str, Point]] = None,
    ) -> Dict[str, Point]:
        """Solve the quadratic placement for all movable cells.

        Args:
            anchors: optional extra springs ``name -> (point, weight)``
                used by the partitioning levels to pull cells toward
                region centres.
            initial: optional warm-start positions (previous solution).
                Only consulted by the iterative CG path (large systems);
                small systems use a direct solve where a starting point
                has no meaning.  Warm starts change the CG iterate
                sequence, so the result matches a cold solve to solver
                tolerance, not bitwise.

        Returns:
            Cell name -> position for every movable cell, clipped into
            the region: the name-keyed front of :meth:`solve_arrays`.
        """
        n = self.n
        if n == 0:
            return {}
        region = self.region
        index = self.index

        anchored = weights = anchor_x = anchor_y = None
        if anchors:
            anchored, weights, anchor_x, anchor_y = [], [], [], []
            for name, (point, weight) in anchors.items():
                i = index.get(name)
                if i is None:
                    continue
                anchored.append(i)
                weights.append(weight)
                anchor_x.append(point.x)
                anchor_y.append(point.y)
        x0 = y0 = None
        if initial is not None:
            center = self._center
            x0 = np.full(n, center.x)
            y0 = np.full(n, center.y)
            for name, i in index.items():
                p = initial.get(name)
                if p is not None:
                    x0[i] = p.x
                    y0[i] = p.y

        xs, ys = self.solve_arrays(weights, anchor_x, anchor_y,
                                   anchored=anchored, x0=x0, y0=y0)
        xs = xs.tolist()
        ys = ys.tolist()
        out: Dict[str, Point] = {}
        for name, i in index.items():
            x = min(max(xs[i], region.lx), region.ux)
            y = min(max(ys[i], region.ly), region.uy)
            out[name] = Point(float(x), float(y))
        return out

    def solve_arrays(
        self,
        weight=None,
        anchor_x=None,
        anchor_y=None,
        anchored=None,
        x0: Optional[np.ndarray] = None,
        y0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Unclipped ``(x, y)`` solution arrays in ``netlist.movables`` order.

        Args:
            weight: anchor spring weight, a scalar or one per anchor;
                ``None`` solves without anchors.
            anchor_x, anchor_y: the anchor points' coordinates.
            anchored: cell indices of the anchors, each at most once;
                ``None`` anchors every cell, in index order.
            x0, y0: optional CG starting point (see :meth:`solve`).

        Each anchor adds ``weight`` to its cell's diagonal and
        ``weight * anchor`` to its right-hand sides, the same IEEE
        operations as one scalar update per cell.
        """
        n = self.n
        if n == 0:
            return np.empty(0), np.empty(0)
        diag = self._diag.copy()
        bx = self._bx.copy()
        by = self._by.copy()
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
            anchor_x = np.asarray(anchor_x, dtype=np.float64)
            anchor_y = np.asarray(anchor_y, dtype=np.float64)
            if anchored is None:
                diag += weight
                bx += weight * anchor_x
                by += weight * anchor_y
            else:
                anchored = np.asarray(anchored, dtype=np.int64)
                diag[anchored] += weight
                bx[anchored] += weight * anchor_x
                by[anchored] += weight * anchor_y

        # Off-diagonal stream first, then the (anchored) diagonal: the
        # COO->CSR duplicate summation runs in naive entry order, so the
        # matrix is bitwise-equal to a per-edge list build.
        arange = np.arange(n)
        rows = np.concatenate([self._rows, arange])
        cols = np.concatenate([self._cols, arange])
        vals = np.concatenate([self._vals, diag])
        laplacian = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

        center = self._center
        if n <= DIRECT_SOLVE_LIMIT:
            # Both axes share the matrix: factor it once.
            lu = spla.splu(laplacian.tocsc())
            return lu.solve(bx), lu.solve(by)
        return (_solve_spd(laplacian, bx, center.x, x0=x0),
                _solve_spd(laplacian, by, center.y, x0=y0))


def _solve_spd(
    laplacian: sp.csr_matrix,
    rhs: np.ndarray,
    start: float,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve the SPD system with CG; falls back to a direct solve."""
    n = laplacian.shape[0]
    if n <= DIRECT_SOLVE_LIMIT:
        return spla.spsolve(laplacian.tocsc(), rhs)
    if x0 is None:
        x0 = np.full(n, start)
    solution, info = spla.cg(laplacian, rhs, x0=x0, rtol=1e-8, maxiter=10 * n)
    if info != 0:
        return spla.spsolve(laplacian.tocsc(), rhs)
    return solution
