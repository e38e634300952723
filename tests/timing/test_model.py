"""Wire capacitance model."""

from __future__ import annotations

import pytest

from repro.geometry import Point
from repro.timing.model import WireCapModel, net_wire_capacitance


class TestWireCapModel:
    def test_capacitance_formula(self):
        model = WireCapModel(ch_per_um=2e-4, cv_per_um=1e-4)
        assert model.capacitance(100, 50) == pytest.approx(
            2e-4 * 100 + 1e-4 * 50
        )


class TestNetWireCapacitance:
    def test_two_pin_net(self):
        cap = net_wire_capacitance(
            [Point(0, 0), Point(100, 0)], WireCapModel(2e-4, 1e-4)
        )
        assert cap == pytest.approx(2e-4 * 100)

    def test_empty_and_single(self):
        assert net_wire_capacitance([], WireCapModel()) == 0.0
        assert net_wire_capacitance([Point(0, 0)], WireCapModel()) == 0.0

    def test_multi_pin_steiner_correction(self):
        pts4 = [Point(0, 0), Point(100, 0), Point(0, 100), Point(100, 100)]
        plain = WireCapModel().capacitance(100, 100)  # the bounding box
        corrected = net_wire_capacitance(pts4, WireCapModel())
        assert corrected == pytest.approx(plain * 1.5)

    def test_monotone_in_spread(self):
        model = WireCapModel()
        near = net_wire_capacitance([Point(0, 0), Point(10, 10)], model)
        far = net_wire_capacitance([Point(0, 0), Point(500, 500)], model)
        assert far > near
