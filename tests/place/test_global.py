"""GORDIAN-style global placement."""

from __future__ import annotations

import pytest

from oracles.geometry import contains
from repro.circuits.random_logic import random_network
from repro.geometry import Rect
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS
from repro.place import global_place
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import subject_netlist
from repro.place.pads import io_affinity_order, pads_from_order

REGION = Rect(0, 0, 200, 200)


@pytest.fixture(scope="module")
def placed():
    net = random_network("gp", 8, 4, 40, seed=11)
    subject = decompose_to_subject(net)
    pads = pads_from_order(io_affinity_order(subject), REGION)
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
            assert contains(REGION, p, tol=1e-9)

    def test_positions_inside_assigned_leaf(self, placed):
        _subject, _netlist, placement = placed
        for name, idx in placement.assignment.items():
            rect = placement.leaf_regions[idx]
            assert contains(rect, placement.positions[name], tol=1e-6)

    def test_balanced_occupancy(self, placed):
        """No leaf region is over- or under-subscribed (Section 3.1)."""
        _subject, netlist, placement = placed
        occupancy = [0.0] * len(placement.leaf_regions)
        for name, idx in placement.assignment.items():
            occupancy[idx] += netlist.sizes.get(name, 1.0)
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

    def test_leaf_cells_histogram(self, placed):
        """With OBS on, ``place.leaf_cells`` holds one sample per leaf, its
        cell count, and the placement is the one made with OBS off."""
        _subject, netlist, placement = placed
        OBS.enable()
        try:
            traced = GlobalPlacer(min_cells_per_region=6).place(
                netlist, REGION)
            hist = OBS.metrics.histograms["place.leaf_cells"]
        finally:
            OBS.disable()
        assert hist.count == len(traced.leaf_regions)
        assert hist.total == len(netlist.movables)
        assert hist.max <= 6  # every leaf stopped by occupancy
        assert list(traced.positions.items()) == list(
            placement.positions.items())
        assert traced.assignment == placement.assignment
        assert traced.leaf_regions == placement.leaf_regions

    def test_leaf_cells_show_a_depth_cut(self, placed, monkeypatch):
        """When the depth cap stops a run early, some leaf holds more
        cells than the limit, and the histogram shows it."""
        _subject, netlist, _placement = placed
        monkeypatch.setattr(global_place, "MAX_LEVELS", 2)
        OBS.enable()
        try:
            GlobalPlacer(min_cells_per_region=6).place(netlist, REGION)
            hist = OBS.metrics.histograms["place.leaf_cells"]
            levels = OBS.metrics.gauges["place.levels"].value
        finally:
            OBS.disable()
        assert (levels, hist.count) == (2, 4)
        assert hist.total == len(netlist.movables)
        assert hist.max > 6

    def test_empty_netlist(self):
        from repro.place.hypergraph import PlacementNetlist

        placement = GlobalPlacer().place(PlacementNetlist(), REGION)
        assert placement.positions == {}
