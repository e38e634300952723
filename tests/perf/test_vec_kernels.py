"""The struct-of-arrays quadratic assembly vs its per-edge oracle (bitwise).

The exactness policy (``docs/SCALING.md``) promises that
:func:`repro.perf.vec.assemble_quadratic` reproduces the naive per-edge
assembly below *bitwise*: every diagonal and right-hand-side float lands
through the same sequence of IEEE additions.  These tests hold it to
that promise with ``==`` on floats — any drift is a bug, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.place import clique_edges
from repro.geometry import Point, Rect
from repro.perf.vec import assemble_quadratic, kernel_backend_info
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import ANCHOR_EPSILON, QuadraticSystem

REGION = Rect(0, 0, 200, 200)


def _naive_streams(netlist, region):
    """The per-edge Python assembly the SoA kernel must reproduce.

    Returns ``(diag, bx, by, rows, cols, vals)``: numpy diagonal and
    right-hand sides, and the off-diagonal COO streams as lists in edge
    order.
    """
    n = netlist.num_movable
    index = {name: i for i, name in enumerate(netlist.movables)}
    center = region.center
    diag = np.full(n, ANCHOR_EPSILON)
    bx = np.full(n, ANCHOR_EPSILON * center.x)
    by = np.full(n, ANCHOR_EPSILON * center.y)
    rows, cols, vals = [], [], []
    for net in netlist.nets:
        for a, b, w in clique_edges(net):
            ia = index.get(a)
            ib = index.get(b)
            if ia is None and ib is None:
                continue
            if ia is not None and ib is not None:
                diag[ia] += w
                diag[ib] += w
                rows.extend((ia, ib))
                cols.extend((ib, ia))
                vals.extend((-w, -w))
            else:
                movable = ia if ia is not None else ib
                p = netlist.fixed[b if ia is not None else a]
                diag[movable] += w
                bx[movable] += w * p.x
                by[movable] += w * p.y
    return diag, bx, by, rows, cols, vals


class _NaiveQuadraticSystem(QuadraticSystem):
    """A system solved from the per-edge assembly (the solve oracle)."""

    def __init__(self, netlist, region):
        super().__init__(netlist, region)
        (self._diag, self._bx, self._by,
         self._rows, self._cols, self._vals) = _naive_streams(
            netlist, region)


def _random_placement_netlist(rng, num_cells=30, num_pads=6,
                              num_nets=45, wide_net=False):
    cells = [f"m{i}" for i in range(num_cells)]
    pads = {f"q{i}": Point(rng.choice([0.0, 200.0]), rng.uniform(0, 200))
            for i in range(num_pads)}
    nets = []
    for _ in range(num_nets):
        k = rng.randrange(1, 6)
        nets.append(rng.sample(cells + sorted(pads), k))
    if wide_net:
        nets.append(rng.sample(cells, min(len(cells), 25)))
    return PlacementNetlist(
        movables=cells,
        sizes={c: 1.0 for c in cells},
        nets=nets,
        fixed=pads,
    )


class TestQuadraticAssembly:
    @pytest.mark.parametrize("case", range(3))
    def test_streams_bitwise(self, case, seeded_rng):
        rng = seeded_rng("vec", "quad", "clique", case)
        netlist = _random_placement_netlist(rng, wide_net=(case == 0))
        vec = QuadraticSystem(netlist, REGION)
        diag, bx, by, rows, cols, vals = _naive_streams(netlist, REGION)
        assert vec._diag.tolist() == diag.tolist()
        assert vec._bx.tolist() == bx.tolist()
        assert vec._by.tolist() == by.tolist()
        assert vec._rows.tolist() == rows
        assert vec._cols.tolist() == cols
        assert vec._vals.tolist() == vals

    def test_solve_bitwise_direct_path(self, seeded_rng):
        # n <= 400 uses the direct sparse solve: identical CSR matrices
        # give identical solutions, so the whole solve is bitwise too.
        rng = seeded_rng("vec", "solve")
        netlist = _random_placement_netlist(rng)
        got = QuadraticSystem(netlist, REGION).solve()
        want = _NaiveQuadraticSystem(netlist, REGION).solve()
        assert got == want

    def test_cg_within_tolerance_of_dense(self, seeded_rng):
        # n > 400 goes through CG; its iterates are not
        # order-reproducible, so this path is tolerance-checked against
        # a dense reference solve of the same (bitwise-shared) system.
        import scipy.sparse as sp

        rng = seeded_rng("vec", "cg")
        netlist = _random_placement_netlist(
            rng, num_cells=450, num_nets=900)
        system = QuadraticSystem(netlist, REGION)
        positions = system.solve()
        n = system.n
        rows = np.concatenate([system._rows, np.arange(n)])
        cols = np.concatenate([system._cols, np.arange(n)])
        vals = np.concatenate([system._vals, system._diag])
        lap = sp.csr_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
        xs = np.linalg.solve(lap, system._bx)
        ys = np.linalg.solve(lap, system._by)
        for name, i in system.index.items():
            p = positions[name]
            assert p.x == pytest.approx(
                min(max(xs[i], REGION.lx), REGION.ux), abs=1e-4)
            assert p.y == pytest.approx(
                min(max(ys[i], REGION.ly), REGION.uy), abs=1e-4)

    def test_sub_two_pin_nets_skip_dangling(self):
        # A dangling name on a 1-pin net must not raise (the naive path
        # never resolves pins of nets clique_edges drops).
        netlist = PlacementNetlist(
            movables=["m0"], sizes={"m0": 1.0},
            nets=[["ghost"], ["m0", "q0"]],
            fixed={"q0": Point(0.0, 0.0)},
        )
        out = assemble_quadratic(
            netlist.nets, {"m0": 0}, netlist.fixed, 1, REGION.center,
            30, 1e-6)
        assert out[0].tolist() == _naive_streams(netlist, REGION)[0].tolist()


class TestBackendInfo:
    def test_reports_versions_and_flags(self):
        info = kernel_backend_info()
        assert info["numpy"] == np.__version__
        assert isinstance(info["scipy"], str)
        assert info["vec_place_default"] is True
        assert info["vec_sta_default"] is True
        assert info["vec_route_default"] is True
        assert info["small_batch_pins"] == 48
