"""GORDIAN-style global placement."""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_network
from repro.geometry import Rect
from repro.network.decompose import decompose_to_subject
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import subject_netlist
from repro.place.pads import assign_pads

REGION = Rect(0, 0, 200, 200)


@pytest.fixture(scope="module")
def placed():
    net = random_network("gp", 8, 4, 40, seed=11)
    subject = decompose_to_subject(net)
    pads = assign_pads(subject, REGION)
    netlist = subject_netlist(subject, pads)
    placement = GlobalPlacer(min_cells_per_region=6).place(netlist, REGION)
    return subject, netlist, placement


class TestGlobalPlacement:
    def test_all_gates_placed(self, placed):
        _subject, netlist, placement = placed
        assert set(placement.positions) == set(netlist.movables)

    def test_positions_inside_region(self, placed):
        _subject, _netlist, placement = placed
        for p in placement.positions.values():
            assert REGION.contains(p, tol=1e-9)

    def test_positions_inside_assigned_leaf(self, placed):
        _subject, _netlist, placement = placed
        for name, idx in placement.assignment.items():
            rect = placement.leaf_regions[idx]
            assert rect.contains(placement.positions[name], tol=1e-6)

    def test_balanced_occupancy(self, placed):
        """No leaf region is over- or under-subscribed (Section 3.1)."""
        _subject, netlist, placement = placed
        occupancy = placement.occupancies(netlist.sizes)
        assert len(occupancy) >= 4
        mean = sum(occupancy) / len(occupancy)
        for occ in occupancy:
            assert occ <= 2.5 * mean + 1
        # every region holds something
        assert min(occupancy) >= 0

    def test_region_cap_respected(self, placed):
        _subject, netlist, placement = placed
        counts = [0] * len(placement.leaf_regions)
        for idx in placement.assignment.values():
            counts[idx] += 1
        # min_cells_per_region=6: the 190 cells stop splitting by
        # occupancy after 6 levels, inside the depth cap (MAX_LEVELS), so
        # no leaf holds more than 6.
        assert max(counts) <= 6

    def test_deterministic(self, placed):
        _subject, netlist, _ = placed
        p1 = GlobalPlacer(min_cells_per_region=6).place(netlist, REGION)
        p2 = GlobalPlacer(min_cells_per_region=6).place(netlist, REGION)
        assert p1.positions == p2.positions

    def test_connectivity_reflected(self, placed):
        """Connected cells end nearer than the region diameter on average."""
        _subject, netlist, placement = placed
        import math

        total, count = 0.0, 0
        for net in netlist.nets:
            pts = [placement.positions[p] for p in net
                   if p in placement.positions]
            for i in range(len(pts) - 1):
                total += abs(pts[i].x - pts[i + 1].x) + abs(
                    pts[i].y - pts[i + 1].y
                )
                count += 1
        avg = total / count
        assert avg < 200  # clearly below the ~400 expectation of random

    def test_empty_netlist(self):
        from repro.place.hypergraph import PlacementNetlist

        placement = GlobalPlacer().place(PlacementNetlist(), REGION)
        assert placement.positions == {}
