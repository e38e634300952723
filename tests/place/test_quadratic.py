"""Quadratic placement solver."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracles.place import clique_edges, quadratic_objective, reference_solve
from repro.geometry import Point, Rect
from repro.place.hypergraph import PlacementNetlist
from repro.place.quadratic import (
    CLIQUE_STAR_LIMIT,
    DIRECT_SOLVE_LIMIT,
    QuadraticSystem,
)

REGION = Rect(0, 0, 100, 100)


def solve_quadratic(netlist, region, anchors=None, initial=None):
    """A solve on a fresh system, as the global placer's first level."""
    return QuadraticSystem(netlist, region).solve(anchors, initial=initial)


def two_pad_netlist():
    """One movable cell between two fixed pads."""
    return PlacementNetlist(
        movables=["m"],
        sizes={"m": 1.0},
        nets=[["p0", "m"], ["m", "p1"]],
        fixed={"p0": Point(0, 50), "p1": Point(100, 50)},
    )


class TestCliqueEdges:
    def test_two_pin(self):
        assert clique_edges(["a", "b"]) == [("a", "b", 1.0)]

    def test_weight_normalisation(self):
        edges = clique_edges(["a", "b", "c", "d"])
        assert len(edges) == 6
        assert all(w == pytest.approx(0.5) for *_ab, w in edges)

    def test_single_pin(self):
        assert clique_edges(["a"]) == []

    def test_wide_net_falls_back_to_star(self):
        """A 50-pin clique net uses O(k) star edges, not 1225 pairs."""
        net = [f"p{i}" for i in range(50)]
        edges = clique_edges(net)
        assert len(edges) == 49
        assert all(a == "p0" for a, _b, _w in edges)
        assert all(w == pytest.approx(2.0 / 50) for *_ab, w in edges)

    def test_limit_boundary(self):
        at_limit = [f"p{i}" for i in range(CLIQUE_STAR_LIMIT)]
        assert len(clique_edges(at_limit)) == (
            CLIQUE_STAR_LIMIT * (CLIQUE_STAR_LIMIT - 1) // 2
        )
        over = at_limit + ["extra"]
        assert len(clique_edges(over)) == CLIQUE_STAR_LIMIT

    def test_wide_net_solves(self):
        """A high-fanout net still places its sinks near the driver."""
        sinks = [f"s{i}" for i in range(49)]
        netlist = PlacementNetlist(
            movables=sinks,
            nets=[["drv"] + sinks],
            fixed={"drv": Point(20, 30)},
        )
        positions = solve_quadratic(netlist, REGION)
        for name in sinks:
            assert positions[name].x == pytest.approx(20, abs=1.0)
            assert positions[name].y == pytest.approx(30, abs=1.0)


class TestSolve:
    def test_midpoint(self):
        positions = solve_quadratic(two_pad_netlist(), REGION)
        assert positions["m"].x == pytest.approx(50, abs=0.5)
        assert positions["m"].y == pytest.approx(50, abs=0.5)

    def test_weighted_pull(self):
        netlist = PlacementNetlist(
            movables=["m"],
            nets=[["p0", "m"], ["m", "p1"], ["m", "p1"]],  # double pull right
            fixed={"p0": Point(0, 0), "p1": Point(90, 0)},
        )
        positions = solve_quadratic(netlist, REGION)
        assert positions["m"].x == pytest.approx(60, abs=1.0)

    def test_chain(self):
        """Three cells in a chain between pads sit at the quarter points."""
        netlist = PlacementNetlist(
            movables=["a", "b", "c"],
            nets=[["L", "a"], ["a", "b"], ["b", "c"], ["c", "R"]],
            fixed={"L": Point(0, 0), "R": Point(100, 0)},
        )
        positions = solve_quadratic(netlist, REGION)
        assert positions["a"].x == pytest.approx(25, abs=0.5)
        assert positions["b"].x == pytest.approx(50, abs=0.5)
        assert positions["c"].x == pytest.approx(75, abs=0.5)

    def test_disconnected_cell_goes_to_center(self):
        netlist = PlacementNetlist(movables=["lonely"], nets=[], fixed={})
        positions = solve_quadratic(netlist, REGION)
        assert positions["lonely"] == Point(50, 50)

    def test_anchors(self):
        netlist = two_pad_netlist()
        anchored = solve_quadratic(
            netlist, REGION, anchors={"m": (Point(10, 10), 100.0)}
        )
        assert anchored["m"].x < 15
        assert anchored["m"].y < 15

    def test_clipped_to_region(self):
        netlist = PlacementNetlist(
            movables=["m"],
            nets=[["p", "m"]],
            fixed={"p": Point(200, 200)},  # outside region
        )
        positions = solve_quadratic(netlist, Rect(0, 0, 100, 100))
        assert positions["m"].x <= 100 and positions["m"].y <= 100

    def test_empty(self):
        assert solve_quadratic(PlacementNetlist(), REGION) == {}


class TestQuadraticSystem:
    def _netlist(self):
        return PlacementNetlist(
            movables=["a", "b", "c"],
            nets=[["L", "a"], ["a", "b"], ["b", "c"], ["c", "R"],
                  ["a", "c", "R"]],
            fixed={"L": Point(0, 10), "R": Point(100, 90)},
        )

    def test_matches_solve_quadratic_bitwise(self):
        """Cached assembly re-solves must equal fresh systems' solves
        exactly."""
        netlist = self._netlist()
        system = QuadraticSystem(netlist, REGION)
        anchor_sets = [
            None,
            {"a": (Point(10, 10), 0.5)},
            {"a": (Point(90, 20), 2.0), "c": (Point(5, 95), 1.0)},
        ]
        for anchors in anchor_sets:
            warm = system.solve(anchors)
            cold = solve_quadratic(netlist, REGION, anchors=anchors)
            assert warm == cold  # Point equality is exact

    @pytest.mark.parametrize("cells", [40, 450])
    def test_anchor_arrays_match_per_cell_updates(self, seeded_rng, cells):
        """Anchors applied as arrays equal one scalar update per cell,
        on the direct path and on the CG path."""
        rng = seeded_rng("quadratic", "anchors", cells)
        names = [f"m{i}" for i in range(cells)]
        pads = {f"p{i}": Point(rng.choice([0, 100]), rng.uniform(0, 100))
                for i in range(6)}
        pool = names + list(pads)
        nets = [[rng.choice(pool) for _ in range(rng.randint(2, 5))]
                for _ in range(2 * cells)]
        netlist = PlacementNetlist(movables=names, nets=nets, fixed=pads)
        system = QuadraticSystem(netlist, REGION)
        picked = rng.sample(names, cells // 3) + ["not-a-cell"]
        anchors = {name: (Point(rng.uniform(-20, 120), rng.uniform(0, 100)),
                          rng.choice([0.05, 1, 3.5]))
                   for name in picked}
        for given in (None, anchors):
            got = system.solve(given)
            want = reference_solve(system, given)
            assert list(got.items()) == list(want.items())
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("cells", [1, 37, 160, DIRECT_SOLVE_LIMIT])
    def test_shared_factorization_matches_two_spsolves(self, seeded_rng,
                                                       cells):
        """A direct solve factors the Laplacian once for both axes; the
        arrays must be byte-equal to one ``spsolve`` per axis."""
        rng = seeded_rng("quadratic", "splu", cells)
        names = [f"m{i}" for i in range(cells)]
        pads = {f"p{i}": Point(rng.uniform(0, 100), rng.uniform(0, 100))
                for i in range(5)}
        pool = names + list(pads)
        nets = [[rng.choice(pool) for _ in range(rng.randint(2, 6))]
                for _ in range(2 * cells)]
        system = QuadraticSystem(
            PlacementNetlist(movables=names, nets=nets, fixed=pads), REGION)
        anchored = np.array(sorted(rng.sample(range(cells), cells // 2 + 1)))
        weight = np.array([rng.choice([0.01, 1.0, 7.5]) for _ in anchored])
        ax = np.array([rng.uniform(0, 100) for _ in anchored])
        ay = np.array([rng.uniform(0, 100) for _ in anchored])
        xs, ys = system.solve_arrays(weight, ax, ay, anchored)

        diag = system._diag.copy()
        bx = system._bx.copy()
        by = system._by.copy()
        diag[anchored] += weight
        bx[anchored] += weight * ax
        by[anchored] += weight * ay
        arange = np.arange(cells)
        laplacian = sp.csr_matrix(
            (np.concatenate([system._vals, diag]),
             (np.concatenate([system._rows, arange]),
              np.concatenate([system._cols, arange]))),
            shape=(cells, cells)).tocsc()
        assert xs.tobytes() == spla.spsolve(laplacian, bx).tobytes()
        assert ys.tobytes() == spla.spsolve(laplacian, by).tobytes()

    def test_repeated_solves_identical(self):
        system = QuadraticSystem(self._netlist(), REGION)
        anchors = {"b": (Point(50, 50), 1.0)}
        assert system.solve(anchors) == system.solve(anchors)

    def test_initial_guess_small_system_identical(self):
        """Small systems solve directly, so a warm start changes nothing."""
        netlist = self._netlist()
        system = QuadraticSystem(netlist, REGION)
        cold = system.solve()
        warm = system.solve(initial={"a": Point(1, 1), "b": Point(99, 99)})
        assert warm == cold

    def test_warm_start_large_system_close(self):
        """Above the direct-solve cutoff a warm start matches to solver
        tolerance (documented: not bitwise)."""
        n = 450
        names = [f"m{i}" for i in range(n)]
        nets = [["L", names[0]]] + [
            [names[i], names[i + 1]] for i in range(n - 1)
        ] + [[names[-1], "R"]]
        netlist = PlacementNetlist(
            movables=names,
            nets=nets,
            fixed={"L": Point(0, 50), "R": Point(100, 50)},
        )
        cold = solve_quadratic(netlist, REGION)
        warm = solve_quadratic(netlist, REGION, initial=cold)
        for name in names:
            assert warm[name].x == pytest.approx(cold[name].x, abs=1e-3)
            assert warm[name].y == pytest.approx(cold[name].y, abs=1e-3)


class TestOptimality:
    def test_solution_is_local_optimum(self):
        """Perturbing any cell of the solution cannot reduce the quadratic
        objective (KKT check by sampling)."""
        netlist = PlacementNetlist(
            movables=["a", "b"],
            nets=[["L", "a"], ["a", "b", "R"]],
            fixed={"L": Point(0, 0), "R": Point(80, 60)},
        )
        positions = solve_quadratic(netlist, REGION)
        base = quadratic_objective(netlist, positions)
        for name in ["a", "b"]:
            for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
                perturbed = dict(positions)
                p = positions[name]
                perturbed[name] = Point(p.x + dx, p.y + dy)
                assert quadratic_objective(netlist, perturbed) >= base - 1e-6
