"""SVG visualisation."""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_network
from repro.flow.pipeline import mis_flow
from repro.library.standard import big_library
from repro.viz import layout_svg


class TestLayoutSvg:
    @pytest.fixture(scope="class")
    def flow_result(self):
        net = random_network("viz", 6, 3, 16, seed=2)
        return mis_flow(net, big_library(), verify=False)

    def test_contains_rows_and_channels(self, flow_result):
        routed = flow_result.backend.routed
        svg = layout_svg(routed, flow_result.backend.pad_positions)
        assert svg.count("channel") >= routed.placement.num_rows
        # one box per placed gate
        gate_titles = sum(
            1 for g in flow_result.mapped.gates
            if f"<title>{g.name}</title>" in svg
        )
        assert gate_titles == len(flow_result.mapped.gates)

    def test_show_nets(self, flow_result):
        routed = flow_result.backend.routed
        plain = layout_svg(routed)
        with_nets = layout_svg(routed, show_nets=True)
        assert with_nets.count("<line") > plain.count("<line")

    def test_valid_xmlish(self, flow_result):
        import xml.etree.ElementTree as ET

        routed = flow_result.backend.routed
        svg = layout_svg(routed, flow_result.backend.pad_positions)
        ET.fromstring(svg)  # raises on malformed XML
