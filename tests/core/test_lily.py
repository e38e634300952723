"""Lily mappers end to end."""

from __future__ import annotations

import pytest

from repro.circuits.arith import parity_tree, ripple_carry_adder
from repro.circuits.random_logic import random_network
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.map.lifecycle import NodeState
from repro.network.decompose import decompose_to_subject
from repro.network.simulate import networks_equivalent


class TestLilyAreaMapper:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equivalence_random(self, big_lib, seed):
        net = random_network("la", 7, 4, 18, seed=seed)
        subject = decompose_to_subject(net)
        result = LilyAreaMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)

    def test_equivalence_arith(self, big_lib):
        net = ripple_carry_adder(3)
        result = LilyAreaMapper(big_lib).map(decompose_to_subject(net))
        assert networks_equivalent(net, result.mapped)

    def test_all_gates_have_positions(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        result = LilyAreaMapper(big_lib).map(subject)
        for gate in result.mapped.gates:
            assert gate.position is not None
            assert result.mapped  # placed inside the image
            region = LilyAreaMapper(big_lib)  # fresh; image known post-map

    def test_positions_inside_image(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        mapper = LilyAreaMapper(big_lib)
        result = mapper.map(subject)
        region = mapper.placement_region
        for gate in result.mapped.gates:
            assert region.contains(gate.position, tol=1e-6)

    @pytest.mark.parametrize("update", ["cm_of_merged", "cm_of_fans"])
    def test_position_update_options(self, big_lib, small_network, update):
        subject = decompose_to_subject(small_network)
        options = LilyOptions(position_update=update)
        result = LilyAreaMapper(big_lib, options=options).map(subject)
        assert networks_equivalent(small_network, result.mapped)

    @pytest.mark.parametrize("norm", ["manhattan", "euclidean"])
    def test_norm_options(self, big_lib, small_network, norm):
        subject = decompose_to_subject(small_network)
        options = LilyOptions(norm=norm)
        result = LilyAreaMapper(big_lib, options=options).map(subject)
        assert networks_equivalent(small_network, result.mapped)

    @pytest.mark.parametrize("model", ["halfperim", "spanning"])
    def test_wire_model_options(self, big_lib, small_network, model):
        subject = decompose_to_subject(small_network)
        options = LilyOptions(wire_model=model)
        result = LilyAreaMapper(big_lib, options=options).map(subject)
        assert networks_equivalent(small_network, result.mapped)

    def test_replacement_interval(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        options = LilyOptions(replace_interval=1)
        result = LilyAreaMapper(big_lib, options=options).map(subject)
        assert networks_equivalent(small_network, result.mapped)

    def test_zero_wire_weight_matches_area_mapper(self, big_lib):
        """With wire weight 0, Lily's objective degenerates to MIS area;
        total cell area must then match MIS's optimum."""
        from repro.map.mis import MisAreaMapper

        net = random_network("zw", 6, 3, 14, seed=3)
        subject = decompose_to_subject(net)
        mis = MisAreaMapper(big_lib).map(subject)
        lily = LilyAreaMapper(
            big_lib, options=LilyOptions(wire_weight=0.0,
                                         use_cone_ordering=False)
        ).map(subject)
        assert lily.cell_area == pytest.approx(mis.cell_area)

    def test_bad_position_update_rejected(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        options = LilyOptions(position_update="teleport")
        with pytest.raises(ValueError):
            LilyAreaMapper(big_lib, options=options).map(subject)

    def test_map_positions_recorded_in_state(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        mapper = LilyAreaMapper(big_lib)
        result = mapper.map(subject)
        hawks = [
            n for n in subject.nodes
            if n.is_gate and result.lifecycle.state(n) is NodeState.HAWK
        ]
        assert hawks
        for h in hawks:
            assert mapper.state.map_position(h) is not None


class TestLilyDelayMapper:
    def test_equivalence(self, big_lib):
        net = parity_tree(6)
        result = LilyDelayMapper(big_lib).map(decompose_to_subject(net))
        assert networks_equivalent(net, result.mapped)

    def test_equivalence_random(self, big_lib):
        net = random_network("ld", 7, 4, 16, seed=9)
        subject = decompose_to_subject(net)
        result = LilyDelayMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)

    def test_arrival_estimates_positive(self, big_lib):
        net = parity_tree(4)
        result = LilyDelayMapper(big_lib).map(decompose_to_subject(net))
        assert all(g.arrival > 0 for g in result.mapped.gates)

    def test_block_arrivals_stored(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        mapper = LilyDelayMapper(big_lib)
        result = mapper.map(subject)
        assert mapper.committed
        for sol in mapper.committed.values():
            assert sol.block_arrivals is not None
            assert len(sol.block_arrivals) == sol.match.cell.num_inputs

    def test_input_arrivals_respected(self, big_lib):
        net = parity_tree(4)
        subject = decompose_to_subject(net)
        base = LilyDelayMapper(big_lib).map(subject)
        late = LilyDelayMapper(
            big_lib, input_arrivals={"x0": 50.0}
        ).map(subject)
        base_max = max(g.arrival for g in base.mapped.gates)
        late_max = max(g.arrival for g in late.mapped.gates)
        assert late_max >= base_max + 25

    def test_cone_ordering_default_off(self, big_lib):
        """Measurement-driven default (EXPERIMENTS.md A3): ordering off."""
        assert not LilyDelayMapper(big_lib).use_cone_ordering
        opts = LilyOptions(use_cone_ordering=True)
        assert LilyDelayMapper(big_lib, options=opts).use_cone_ordering


class TestLilyCombined:
    def test_shared_logic_hawk_reuse(self, big_lib):
        """Shared drivers across cones are instantiated once."""
        from repro.network.blif import parse_blif

        net = parse_blif(""".model sh
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
11 1
.names t c g
10 1
01 1
.end
""")
        subject = decompose_to_subject(net)
        result = LilyAreaMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)

    def test_reincarnation_possible(self, big_lib):
        """On circuits with heavy sharing Lily may duplicate doves; the
        lifecycle records it without breaking equivalence."""
        net = random_network("ri", 6, 5, 20, seed=21)
        subject = decompose_to_subject(net)
        result = LilyAreaMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)
        assert result.lifecycle.reincarnations >= 0


def _library_with_pin(big_lib, cell_name, **changes):
    """``big_lib`` with the first pin of ``cell_name`` changed:
    ``input_cap`` or a ``PinTiming`` field."""
    from dataclasses import replace

    from repro.library.cell import Cell, Library

    cells = []
    for cell in big_lib:
        if cell.name == cell_name:
            first = cell.pins[0]
            cap = changes.pop("input_cap", first.input_cap)
            pins = [replace(first, input_cap=cap,
                            timing=replace(first.timing, **changes)),
                    *cell.pins[1:]]
            cell = Cell(cell.name, cell.area, cell.expression_text, pins,
                        output_name=cell.output_name)
        cells.append(cell)
    return Library("edited", cells)


class TestBoundParameters:
    """Lily's cost bounds hold only for non-negative caps, resistances,
    wire coefficients and weights; anything else is refused up front."""

    @pytest.mark.parametrize("mapper", [LilyAreaMapper, LilyDelayMapper])
    def test_negative_pin_cap_rejected(self, big_lib, mapper):
        lib = _library_with_pin(big_lib, "nand3", input_cap=-0.01)
        with pytest.raises(ValueError, match="input capacitance"):
            mapper(lib)

    @pytest.mark.parametrize("field", ["rise_resistance", "fall_resistance"])
    @pytest.mark.parametrize("mapper", [LilyAreaMapper, LilyDelayMapper])
    def test_negative_drive_resistance_rejected(self, big_lib, mapper,
                                                field):
        lib = _library_with_pin(big_lib, "nand3", **{field: -1.0})
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            mapper(lib)

    @pytest.mark.parametrize("coefficients", [(-1e-4, 1.5e-4),
                                              (2.0e-4, -1e-4)])
    def test_negative_wire_cap_coefficient_rejected(self, big_lib,
                                                    coefficients):
        from repro.timing.model import WireCapModel

        with pytest.raises(ValueError, match="wire_cap"):
            LilyDelayMapper(big_lib, wire_cap=WireCapModel(*coefficients))

    def test_negative_pad_cap_rejected(self, big_lib):
        with pytest.raises(ValueError, match="pad_cap"):
            LilyDelayMapper(big_lib, pad_cap=-0.25)

    @pytest.mark.parametrize("mapper", [LilyAreaMapper, LilyDelayMapper])
    def test_negative_wire_weight_rejected(self, big_lib, mapper):
        with pytest.raises(ValueError, match="wire_weight"):
            mapper(big_lib, options=LilyOptions(wire_weight=-2.0))

    def test_zero_values_accepted(self, big_lib):
        from repro.timing.model import WireCapModel

        lib = _library_with_pin(big_lib, "nand3", input_cap=0.0,
                                rise_resistance=0.0, fall_resistance=0.0)
        LilyAreaMapper(lib, options=LilyOptions(wire_weight=0.0))
        LilyDelayMapper(lib, wire_cap=WireCapModel(0.0, 0.0), pad_cap=0.0)


class TestModelNames:
    """An unknown position update, norm or wire model is refused by the
    constructor, before the pattern build and the initial placement."""

    @pytest.mark.parametrize("field", ["position_update", "norm",
                                       "wire_model"])
    @pytest.mark.parametrize("mapper", [LilyAreaMapper, LilyDelayMapper])
    def test_unknown_name_rejected_at_construction(self, big_lib,
                                                   monkeypatch, mapper,
                                                   field):
        from repro.map.base import BaseMapper

        def no_build(*args, **kwargs):
            raise AssertionError("the mapper was built")

        monkeypatch.setattr(BaseMapper, "__init__", no_build)
        options = LilyOptions(**{field: "bogus"})
        with pytest.raises(ValueError,
                           match=f"unknown {field.replace('_', ' ')}: "
                                 "'bogus'"):
            mapper(big_lib, options=options)
