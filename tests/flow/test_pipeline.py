"""End-to-end pipelines."""

from __future__ import annotations

import weakref

import pytest

import repro.flow.pipeline as pipeline
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyOptions
from repro.flow.pipeline import lily_flow, mis_flow, pads_from_order
from repro.geometry import Rect
from repro.library.standard import big_library
from repro.map.base import BaseMapper


@pytest.fixture(scope="module")
def misex1():
    return build_circuit("misex1")


@pytest.fixture(scope="module")
def lib():
    return big_library()


@pytest.fixture(scope="module")
def mis_area(misex1, lib):
    return mis_flow(misex1, lib, mode="area")


@pytest.fixture(scope="module")
def lily_area(misex1, lib):
    return lily_flow(misex1, lib, mode="area")


class TestMisFlow:
    def test_verified_equivalent(self, mis_area):
        assert mis_area.equivalent

    def test_metrics_positive(self, mis_area):
        assert mis_area.instance_area_mm2 > 0
        assert mis_area.chip_area_mm2 > mis_area.instance_area_mm2
        assert mis_area.wire_length_mm > 0
        assert mis_area.num_gates > 0

    def test_gates_placed(self, mis_area):
        for gate in mis_area.mapped.gates:
            assert gate.position is not None

    def test_timing_mode(self, misex1, lib):
        result = mis_flow(misex1, lib, mode="timing")
        assert result.equivalent
        assert result.delay > 0

    def test_unknown_mode(self, misex1, lib):
        with pytest.raises(ValueError):
            mis_flow(misex1, lib, mode="vibes")


class TestLilyFlow:
    def test_verified_equivalent(self, lily_area):
        assert lily_area.equivalent

    def test_metrics_positive(self, lily_area):
        assert lily_area.instance_area_mm2 > 0
        assert lily_area.chip_area_mm2 > 0
        assert lily_area.wire_length_mm > 0

    def test_timing_mode(self, misex1, lib):
        result = lily_flow(misex1, lib, mode="timing")
        assert result.equivalent
        assert result.delay > 0

    def test_options_forwarded(self, misex1, lib):
        result = lily_flow(
            misex1, lib, mode="area",
            options=LilyOptions(position_update="cm_of_merged"),
        )
        assert result.equivalent

    def test_seeded_backend(self, misex1, lib):
        result = lily_flow(
            misex1, lib, mode="area", seed_backend_from_mapper=True
        )
        assert result.equivalent
        assert result.chip_area_mm2 > 0

    def test_mapper_label(self, lily_area, mis_area):
        assert lily_area.mapper == "lily"
        assert mis_area.mapper == "mis"


class TestSharedBackend:
    def test_pads_from_order(self):
        pads = pads_from_order(["x", "y", "z"], Rect(0, 0, 10, 10))
        assert set(pads) == {"x", "y", "z"}

    def test_both_flows_share_pad_order(self, mis_area, lily_area):
        """Fairness: the circular pad order is identical in both flows
        (positions differ only by image scaling)."""
        def ring_order(backend):
            pads = backend.pad_positions
            region_cx = sum(p.x for p in pads.values()) / len(pads)
            region_cy = sum(p.y for p in pads.values()) / len(pads)
            import math

            return [
                name for name, _ in sorted(
                    pads.items(),
                    key=lambda kv: math.atan2(
                        kv[1].y - region_cy, kv[1].x - region_cx
                    ),
                )
            ]

        mis_ring = ring_order(mis_area.backend)
        lily_ring = ring_order(lily_area.backend)
        # Same cyclic sequence: rotate to align first element.
        k = lily_ring.index(mis_ring[0])
        rotated = lily_ring[k:] + lily_ring[:k]
        assert rotated == mis_ring


class TestMapperReleased:
    """The back end runs without the mapper: nothing after the cover
    reads it, so its tables and per-run state are freed first."""

    @pytest.mark.parametrize("flow,mode", [
        ("mis", "area"), ("mis", "timing"),
        ("lily", "area"), ("lily", "timing"),
    ])
    def test_mapper_dead_when_backend_starts(self, monkeypatch, misex1, lib,
                                             flow, mode):
        mappers = []
        real_map = BaseMapper.map

        def tracked_map(self, subject):
            mappers.append(weakref.ref(self))
            return real_map(self, subject)

        alive = []
        real_backend = pipeline.place_and_route

        def checked_backend(*args, **kwargs):
            alive.extend(ref() is not None for ref in mappers)
            return real_backend(*args, **kwargs)

        monkeypatch.setattr(BaseMapper, "map", tracked_map)
        monkeypatch.setattr(pipeline, "place_and_route", checked_backend)
        run = mis_flow if flow == "mis" else lily_flow
        result = run(misex1, lib, mode=mode, verify=False)
        assert len(mappers) == 1
        assert alive == [False]
        assert result.map_result.num_gates > 0


class TestArgumentsCheckedFirst:
    """A bad ``mode`` or ``verify`` level fails before the flow orders a
    pad, so no eigensolve, decomposition, cover or back end runs for it."""

    @pytest.mark.parametrize("kwargs,message", [
        ({"mode": "vibes"}, "unknown mode: 'vibes'"),
        ({"verify": "fullest"}, "unknown verify level: 'fullest'"),
    ], ids=["mode", "verify"])
    @pytest.mark.parametrize("flow", ["mis", "lily"])
    def test_rejected_before_any_work(self, monkeypatch, misex1, lib, flow,
                                      kwargs, message):
        def no_work(net):
            raise AssertionError("the flow started work")

        monkeypatch.setattr(pipeline, "io_affinity_order", no_work)
        run = mis_flow if flow == "mis" else lily_flow
        with pytest.raises(ValueError, match=message):
            run(misex1, lib, **kwargs)
