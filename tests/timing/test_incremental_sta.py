"""Incremental STA must track full recomputation bitwise.

Every comparison here is exact (``==`` on floats): the engine shares the
full pass's per-node arithmetic and propagation order, so any drift is a
bug, not noise.
"""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_network
from repro.geometry import Point
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.timing import IncrementalTiming
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, required_times

WIRE = WireCapModel()


def _mapped_with_positions(rng):
    """A mapped netlist with synthetic placements, all drawn from *rng*."""
    net = random_network("ista", 6, 3, 24, seed=rng.randrange(2 ** 31))
    mapped = MisAreaMapper(big_library()).map(
        decompose_to_subject(net)).mapped
    for node in mapped.topological_order():
        node.position = Point(rng.uniform(0, 200), rng.uniform(0, 200))
    return mapped


def _same_report(live, full):
    assert set(live.arrivals) == set(full.arrivals)
    for name, want in full.arrivals.items():
        got = live.arrivals[name]
        assert got.rise == want.rise and got.fall == want.fall, name
    assert live.loads == full.loads
    assert live.critical_po == full.critical_po
    assert live.critical_delay == full.critical_delay


class TestForwardUpdates:
    def test_initial_report_is_full_analysis(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "initial"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        _same_report(engine.report, analyze(mapped, wire_model=WIRE))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_move_loop_exact(self, seed, seeded_rng):
        rng = seeded_rng("ista", "moves", seed)
        mapped = _mapped_with_positions(rng)
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        gates = sorted(g.name for g in mapped.gates)
        for _ in range(25):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            engine.set_position(name, Point(p.x + rng.uniform(-9, 9),
                                            p.y + rng.uniform(-9, 9)))
            live = engine.update()
            _same_report(live, analyze(mapped, wire_model=WIRE))

    def test_batched_moves_exact(self, seeded_rng):
        rng = seeded_rng("ista", "batch")
        mapped = _mapped_with_positions(rng)
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        gates = sorted(g.name for g in mapped.gates)
        for name in rng.sample(gates, min(6, len(gates))):
            p = mapped[name].position
            engine.set_position(name, Point(p.x + 5.0, p.y - 3.0))
        _same_report(engine.update(), analyze(mapped, wire_model=WIRE))

    def test_input_arrival_change(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "arrival"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        pi = mapped.primary_inputs[0].name
        engine.set_input_arrival(pi, 4.5)
        live = engine.update()
        full = analyze(mapped, wire_model=WIRE,
                       input_arrivals={pi: 4.5})
        _same_report(live, full)

    def test_noop_update_is_free(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "noop"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        before = engine.nodes_recomputed
        engine.update()
        assert engine.nodes_recomputed == before

    def test_frontier_smaller_than_netlist(self, seeded_rng):
        """A single move must not re-visit the whole netlist."""
        mapped = _mapped_with_positions(seeded_rng("ista", "frontier"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        name = sorted(g.name for g in mapped.gates)[0]
        p = mapped[name].position
        engine.set_position(name, Point(p.x + 1.0, p.y))
        engine.update()
        assert engine.nodes_recomputed < len(mapped.topological_order())


class TestRequiredTimes:
    @pytest.mark.parametrize("deadline", [None, 40.0])
    def test_required_matches_full(self, deadline, seeded_rng):
        rng = seeded_rng("ista", "required", deadline)
        mapped = _mapped_with_positions(rng)
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        gates = sorted(g.name for g in mapped.gates)
        for _ in range(10):
            name = gates[rng.randrange(len(gates))]
            p = mapped[name].position
            engine.set_position(name, Point(p.x + rng.uniform(-6, 6),
                                            p.y + rng.uniform(-6, 6)))
            got = engine.required(deadline)
            full = analyze(mapped, wire_model=WIRE)
            want = required_times(mapped, full, deadline)
            assert got == want

    def test_deadline_switch_recomputes(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "deadline"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        loose = engine.required(100.0)
        tight = engine.required(10.0)
        assert loose != tight
        full = analyze(mapped, wire_model=WIRE)
        assert tight == required_times(mapped, full, 10.0)


class TestCrossCheck:
    def test_clean_engine_passes(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "clean"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        assert engine.check_against_full() == []

    def test_corruption_is_detected(self, seeded_rng):
        from repro.timing.sta import ArrivalTimes

        mapped = _mapped_with_positions(seeded_rng("ista", "corrupt"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        gate = sorted(g.name for g in mapped.gates)[0]
        engine.report.arrivals[gate] = ArrivalTimes(-1.0, -1.0)
        problems = engine.check_against_full()
        assert problems
        assert any(gate in p for p in problems)

    def test_required_corruption_is_detected(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "corrupt-req"))
        engine = IncrementalTiming(mapped, wire_model=WIRE)
        gate = sorted(g.name for g in mapped.gates)[0]
        engine.required()[gate] = -1.0  # the engine's cached map
        problems = engine.check_against_full()
        assert len(problems) == 1
        assert "required-time mismatch" in problems[0]
        assert gate in problems[0]


class TestConstruction:
    def test_vec_keyword_accepts_only_true(self, seeded_rng):
        mapped = _mapped_with_positions(seeded_rng("ista", "vec-kw"))
        engine = IncrementalTiming(mapped, wire_model=WIRE, vec=True)
        assert engine.check_against_full() == []
        for value in (False, None, 1):
            with pytest.raises(ValueError):
                IncrementalTiming(mapped, wire_model=WIRE, vec=value)


class TestVerifyIntegration:
    def test_invariant_checker_passes(self, seeded_rng):
        from repro.verify.invariants import check_incremental_sta

        mapped = _mapped_with_positions(seeded_rng("ista", "invariant"))
        saved = {n.name: n.position for n in mapped.nodes}
        results = check_incremental_sta(mapped, wire_model=WIRE, trials=2)
        assert len(results) == 1
        assert results[0].passed, results[0].details
        assert results[0].name == "invariant.timing.incremental"
        # The audit must leave positions untouched.
        assert {n.name: n.position for n in mapped.nodes} == saved

    def test_invariant_checker_restores_arrivals(self, seeded_rng):
        """The audit puts back the ``node.arrival`` values it found,
        even ones no timing pass would compute."""
        from repro.verify.invariants import check_incremental_sta

        mapped = _mapped_with_positions(seeded_rng("ista", "arrivals"))
        analyze(mapped, wire_model=WIRE)
        for index, node in enumerate(mapped.nodes):
            node.arrival = -1.0 - index
        sentinels = {n.name: n.arrival for n in mapped.nodes}
        results = check_incremental_sta(mapped, wire_model=WIRE, trials=2)
        assert results[0].passed, results[0].details
        assert {n.name: n.arrival for n in mapped.nodes} == sentinels

    def test_stale_required_frontier_is_detected(self, seeded_rng,
                                                 monkeypatch):
        """A single fast-audit trial must exercise the backward frontier."""
        from repro.verify.invariants import check_incremental_sta

        mapped = _mapped_with_positions(seeded_rng("ista", "stale-front"))
        calls = []

        def stale(self, required, effective):
            calls.append(effective)
            return required

        monkeypatch.setattr(IncrementalTiming, "_required_frontier", stale)
        results = check_incremental_sta(mapped, wire_model=WIRE, trials=1)
        assert calls
        assert not results[0].passed
        assert "required-time mismatch" in results[0].details
