"""Struct-of-arrays kernels vs naive oracles (bitwise).

The exactness policy (``docs/SCALING.md``) promises that every vectorized
kernel reproduces its naive twin *bitwise* wherever the naive arithmetic
is order-reproducible: min/max folds always, float sums where the kernel
accumulates in naive operation order.  The twins are the flag-free
references in ``src`` (``netlist_hpwl_naive``, the box cache's per-net
``_fold``) and the per-edge quadratic assembly below.  These tests hold
the kernels to that promise with ``==`` on floats — any drift is a bug,
not noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.perf.vec import (
    PinTable,
    assemble_quadratic,
    fold_box_arrays,
    kernel_backend_info,
    ordered_sum,
    segment_max,
    segment_min,
    segment_sum_ordered,
)
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import ANCHOR_EPSILON, QuadraticSystem, clique_edges
from repro.route.wirelength import netlist_hpwl, netlist_hpwl_naive

REGION = Rect(0, 0, 200, 200)


def _naive_streams(netlist, region, weight_model="clique"):
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
        for a, b, w in clique_edges(net, weight_model):
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

    def __init__(self, netlist, region, weight_model="clique"):
        super().__init__(netlist, region, weight_model)
        (self._diag, self._bx, self._by,
         self._rows, self._cols, self._vals) = _naive_streams(
            netlist, region, weight_model)


def _random_values(rng, n):
    """Floats with mixed magnitudes: rounding-order differences show."""
    return [rng.uniform(-1e6, 1e6) * (10.0 ** rng.randrange(-6, 7))
            for _ in range(n)]


def _random_hypergraph(rng, num_cells=40, num_pads=8, num_nets=60):
    """A netlist with adversarial nets: dangling pins, 0/1-pin nets,
    duplicate members, pad-only nets."""
    cells = [f"c{i}" for i in range(num_cells)]
    pads = [f"p{i}" for i in range(num_pads)]
    positions = {c: Point(rng.uniform(0, 200), rng.uniform(0, 200))
                 for c in cells}
    fixed = {p: Point(rng.choice([0.0, 200.0]), rng.uniform(0, 200))
             for p in pads}
    pool = cells + pads + ["dangling0", "dangling1"]
    nets = []
    for _ in range(num_nets):
        k = rng.randrange(0, 7)
        nets.append([rng.choice(pool) for _ in range(k)])
    return nets, positions, fixed


class TestSegmentReductions:
    @pytest.mark.parametrize("case", range(6))
    def test_min_max_match_python_folds(self, case, seeded_rng):
        rng = seeded_rng("vec", "segments", case)
        counts = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 30))]
        offsets = np.cumsum([0] + counts)
        values = _random_values(rng, int(offsets[-1]))
        lo = segment_min(values, offsets)
        hi = segment_max(values, offsets)
        for i, c in enumerate(counts):
            seg = values[offsets[i]:offsets[i + 1]]
            assert lo[i] == (min(seg) if c else np.inf)
            assert hi[i] == (max(seg) if c else -np.inf)

    def test_empty_segment_positions(self):
        # Leading, interior, and trailing empties: the reduceat sentinel
        # and the count mask must each cover its own failure mode.
        offsets = np.asarray([0, 0, 2, 2, 5, 5])
        values = [3.0, -1.0, 7.0, 2.0, 5.0]
        assert segment_min(values, offsets).tolist() == [
            np.inf, -1.0, np.inf, 2.0, np.inf]
        assert segment_max(values, offsets).tolist() == [
            -np.inf, 3.0, -np.inf, 7.0, -np.inf]
        assert segment_sum_ordered(values, offsets).tolist() == [
            0.0, 2.0, 0.0, 14.0, 0.0]

    def test_no_segments(self):
        assert len(segment_min([], np.asarray([0]))) == 0
        assert len(segment_sum_ordered([], np.asarray([0]))) == 0

    @pytest.mark.parametrize("case", range(6))
    def test_ordered_sums_bitwise(self, case, seeded_rng):
        rng = seeded_rng("vec", "sums", case)
        counts = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 25))]
        offsets = np.cumsum([0] + counts)
        values = _random_values(rng, int(offsets[-1]))
        out = segment_sum_ordered(values, offsets)
        for i in range(len(counts)):
            want = 0.0
            for v in values[offsets[i]:offsets[i + 1]]:
                want += v
            assert out[i] == want

    def test_ordered_sum_matches_naive_loop(self, seeded_rng):
        values = _random_values(seeded_rng("vec", "osum"), 500)
        want = 0.0
        for v in values:
            want += v
        assert ordered_sum(values) == want
        assert ordered_sum(np.asarray(values)) == want


class TestPinTable:
    @pytest.mark.parametrize("case", range(5))
    def test_total_hpwl_bitwise(self, case, seeded_rng):
        rng = seeded_rng("vec", "hpwl", case)
        nets, positions, fixed = _random_hypergraph(rng)
        table = PinTable(nets, positions, fixed)
        assert table.total_hpwl() == netlist_hpwl_naive(
            nets, positions, fixed)
        assert netlist_hpwl(nets, positions, fixed) == \
            netlist_hpwl_naive(nets, positions, fixed)

    @pytest.mark.parametrize("case", range(4))
    def test_per_net_hpwl_matches_naive(self, case, seeded_rng):
        rng = seeded_rng("vec", "subset", case)
        nets, positions, fixed = _random_hypergraph(rng)
        table = PinTable(nets, positions, fixed)
        assert table.hpwl().tolist() == [
            netlist_hpwl_naive([net], positions, fixed) for net in nets]

    def test_empty_netlist(self):
        table = PinTable([], {}, {})
        assert table.total_hpwl() == 0.0
        assert table.hpwl().tolist() == []


class TestFoldBoxArrays:
    @pytest.mark.parametrize("case", range(4))
    def test_matches_naive_cache_boxes(self, case, seeded_rng):
        from repro.perf.incremental import NetBoxCache

        rng = seeded_rng("vec", "boxes", case)
        nets, positions, fixed = _random_hypergraph(rng)
        cache = NetBoxCache(nets, positions, fixed)
        for i, net in enumerate(nets):
            if cache._box[i] is not None:
                assert cache._box[i] == cache._fold(i), net
            assert cache.hpwl(i) == netlist_hpwl_naive(
                [net], positions, fixed), net

    def test_direct_fold(self):
        out = fold_box_arrays(
            [["a", "b"], [], ["a"]],
            [None, (1.0, 2.0, 3.0, 4.0), None],
            {"a": Point(5.0, 6.0), "b": Point(1.0, 8.0)},
        )
        lx, ly, ux, uy = (arr.tolist() for arr in out)
        assert (lx[0], ly[0], ux[0], uy[0]) == (1.0, 6.0, 5.0, 8.0)
        assert (lx[1], ly[1], ux[1], uy[1]) == (1.0, 2.0, 3.0, 4.0)
        assert (lx[2], ly[2], ux[2], uy[2]) == (5.0, 6.0, 5.0, 6.0)


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
    @pytest.mark.parametrize("weight_model", ["clique", "star"])
    @pytest.mark.parametrize("case", range(3))
    def test_streams_bitwise(self, weight_model, case, seeded_rng):
        rng = seeded_rng("vec", "quad", weight_model, case)
        netlist = _random_placement_netlist(rng, wide_net=(case == 0))
        vec = QuadraticSystem(netlist, REGION, weight_model)
        diag, bx, by, rows, cols, vals = _naive_streams(
            netlist, REGION, weight_model)
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
            "clique", 30, 1e-6)
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
