"""Row-based global routing and chip assembly."""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_network
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.place.detailed import detailed_place
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import mapped_netlist
from repro.place.pads import io_affinity_order, pads_from_order
from repro.route.global_route import route_design
from repro.area.estimate import mapped_image


@pytest.fixture(scope="module")
def routed_case():
    lib = big_library()
    net = random_network("rt", 8, 4, 30, seed=5)
    subject = decompose_to_subject(net)
    mapped = MisAreaMapper(lib).map(subject).mapped
    region = mapped_image(mapped.total_cell_area())
    pads = pads_from_order(io_affinity_order(mapped), region)
    netlist = mapped_netlist(mapped, pads)
    placement = GlobalPlacer().place(netlist, region)
    detailed = detailed_place(netlist, placement.positions)
    routed = route_design(mapped, detailed, pads)
    return mapped, detailed, pads, routed


class TestRouteDesign:
    def test_channel_count(self, routed_case):
        _mapped, detailed, _pads, routed = routed_case
        assert len(routed.channels) == detailed.num_rows + 1
        assert len(routed.channel_heights) == detailed.num_rows + 1

    def test_channel_heights_reflect_tracks(self, routed_case):
        *_ignored, routed = routed_case
        for channel, height in zip(routed.channels, routed.channel_heights):
            assert height >= channel.num_tracks * 8.0

    def test_every_multi_pin_net_routed(self, routed_case):
        mapped, _detailed, pads, routed = routed_case
        expected = 0
        for net in mapped.nets():
            if net.driver.is_constant:
                continue
            pins = 0
            for node in [net.driver] + [s for s, _p in net.sinks]:
                if node.is_gate or node.name in pads:
                    pins += 1
            if pins >= 2:
                expected += 1
        assert len(routed.net_lengths) == expected

    def test_lengths_dominate_vertical_span(self, routed_case):
        """Each routed net is at least as long as its trunk span."""
        *_ignored, routed = routed_case
        assert all(v >= 0 for v in routed.net_lengths.values())
        assert routed.total_wire_length > 0

    def test_chip_dimensions(self, routed_case):
        _mapped, detailed, _pads, routed = routed_case
        assert routed.chip_width >= detailed.core_width
        expected_height = (
            sum(routed.channel_heights)
            + detailed.num_rows * detailed.cell_height
        )
        assert routed.chip_height == pytest.approx(expected_height)
        assert routed.chip_area == pytest.approx(
            routed.chip_width * routed.chip_height
        )

    def test_final_positions_restacked(self, routed_case):
        _mapped, detailed, _pads, routed = routed_case
        # The routed placement's rows incorporate the channel heights:
        # row 0 sits above channel 0.
        first_row = routed.placement.rows[0]
        assert first_row.y_center == pytest.approx(
            routed.channel_heights[0] + detailed.cell_height / 2.0
        )

    def test_congestion_increases_tracks(self):
        """More overlapping nets in one channel -> more tracks."""
        from repro.route.channel import left_edge_route

        sparse = left_edge_route({"a": (0, 10), "b": (20, 30)})
        dense = left_edge_route(
            {f"n{i}": (0.0 + i, 50.0 + i) for i in range(5)}
        )
        assert dense.num_tracks > sparse.num_tracks
