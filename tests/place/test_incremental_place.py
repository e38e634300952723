"""The incremental bounding-box cache and the engines built on it.

Everything here is an exactness test: the cache must agree with a
from-scratch fold *bitwise* (``==`` on floats, no tolerance), and the
incremental annealing / detailed-improvement engines must reproduce the
full-recompute oracles' placements exactly (``oracles.place``).
"""

from __future__ import annotations

import pytest

from oracles.place import (
    _net_hpwl,
    anneal_reference,
    detailed_place_reference,
)
from repro.circuits.random_logic import random_network
from repro.flow.pipeline import mis_flow
from repro.geometry import Point
from repro.library.standard import big_library
from repro.perf.incremental import NetBoxCache
from repro.place.anneal import simulated_annealing
from repro.place.detailed import detailed_place
from repro.place.hypergraph import mapped_netlist


def _hpwl_reference(nets, positions, fixed):
    """Brute-force HPWL per net, same located-pin rules as the caches."""
    out = []
    for net in nets:
        points = []
        for pin in net:
            p = positions.get(pin)
            if p is None:
                p = fixed.get(pin)
            if p is not None:
                points.append(p)
        if len(points) < 2:
            out.append(0.0)
            continue
        lx = min(p.x for p in points)
        ux = max(p.x for p in points)
        ly = min(p.y for p in points)
        uy = max(p.y for p in points)
        out.append((ux - lx) + (uy - ly))
    return out


def _random_case(rng, cells=12, nets=18, pads=4):
    names = [f"c{i}" for i in range(cells)]
    fixed = {
        f"p{i}": Point(rng.uniform(0, 100), rng.uniform(0, 100))
        for i in range(pads)
    }
    pins = names + list(fixed)
    netlist = []
    for _ in range(nets):
        k = rng.randint(1, 5)
        netlist.append([pins[rng.randrange(len(pins))] for _ in range(k)])
    positions = {
        n: Point(rng.uniform(0, 100), rng.uniform(0, 100)) for n in names
    }
    return netlist, positions, fixed, rng


def _adversarial_hypergraph(rng, num_cells=40, num_pads=8, num_nets=60):
    """Nets with dangling pins, 0/1-pin nets, duplicate members and
    pad-only nets."""
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


class TestNetBoxCache:
    @pytest.mark.parametrize("case", range(4))
    def test_construction_matches_per_net_fold(self, case, seeded_rng):
        """Every built box is the net's own fold, and every HPWL the
        oracle's per-net value."""
        rng = seeded_rng("vec", "boxes", case)
        nets, positions, fixed = _adversarial_hypergraph(rng)
        cache = NetBoxCache(nets, positions, fixed)
        for i, net in enumerate(nets):
            if cache._box[i] is not None:
                assert cache._box[i] == cache._fold(i), net
            assert cache.hpwl(i) == _net_hpwl(net, positions, fixed), net

    @pytest.mark.parametrize("seed", range(5))
    def test_random_moves_match_reference(self, seed, seeded_rng):
        """Dirty-marked nets re-fold on read, as the swap pass relies on."""
        nets, positions, fixed, rng = _random_case(
            seeded_rng("netbox", seed))
        cache = NetBoxCache(nets, positions, fixed)
        movable = sorted(positions)
        for _ in range(200):
            name = movable[rng.randrange(len(movable))]
            old = positions[name]
            positions[name] = Point(old.x + rng.uniform(-30, 30),
                                    old.y + rng.uniform(-30, 30))
            for i in cache.cell_nets.get(name, ()):
                cache._dirty[i] = True
            want = _hpwl_reference(nets, positions, fixed)
            got = [cache.hpwl(i) for i in range(len(nets))]
            assert got == want  # bitwise
        assert cache.refolds > 0

    def test_swap_plan_masks(self):
        nets = [["a", "b"], ["a", "x"], ["b", "x"], ["a", "b", "x"], ["a"]]
        positions = {
            "a": Point(0.0, 0.0),
            "b": Point(1.0, 1.0),
            "x": Point(2.0, 2.0),
        }
        cache = NetBoxCache(nets, positions, {})
        plan = cache.swap_plan("a", "b")
        # Net 4 is single-pin (HPWL forever 0.0) and must be filtered.
        assert plan == [(0, 3), (1, 1), (2, 2), (3, 3)]
        assert cache.swap_plan("a", "b") is plan  # memoized


@pytest.fixture(scope="module")
def placed_case(seeded_rng):
    net = random_network("inc", 7, 4, 30,
                         seed=seeded_rng("inc-place").randrange(2 ** 31))
    flow = mis_flow(net, big_library(), verify=False)
    netlist = mapped_netlist(flow.mapped, flow.backend.pad_positions)
    return flow, netlist


def _placement_fingerprint(placement):
    rows = tuple(
        (row.index, tuple(row.cells),
         tuple(sorted(row.x_spans.items())))
        for row in placement.rows
    )
    positions = tuple(sorted(
        (name, p.x, p.y) for name, p in placement.positions.items()
    ))
    return rows, positions


class TestEngineEquivalence:
    def test_anneal_incremental_matches_naive(self, placed_case):
        flow, netlist = placed_case
        import copy

        base = flow.backend.detailed
        a = copy.deepcopy(base)
        b = copy.deepcopy(base)
        stats_naive = anneal_reference(a, netlist, seed=3, moves_per_cell=6)
        stats_inc = simulated_annealing(b, netlist, seed=3, moves_per_cell=6)
        assert _placement_fingerprint(a) == _placement_fingerprint(b)
        assert stats_naive.initial_hpwl == stats_inc.initial_hpwl
        assert stats_naive.final_hpwl == stats_inc.final_hpwl
        assert stats_naive.moves_tried == stats_inc.moves_tried
        assert stats_naive.moves_accepted == stats_inc.moves_accepted

    def test_detailed_incremental_matches_naive(self, placed_case):
        flow, netlist = placed_case
        positions = {
            name: flow.backend.detailed.positions[name]
            for name in netlist.movables
        }
        naive = detailed_place_reference(netlist, positions,
                                         improvement_passes=4)
        fast = detailed_place(netlist, positions, improvement_passes=4)
        assert (_placement_fingerprint(naive)
                == _placement_fingerprint(fast))
