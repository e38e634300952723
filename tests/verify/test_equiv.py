"""Unit tests for the per-cone equivalence checker."""

from __future__ import annotations

import pytest

from repro.network.blif import parse_blif
from repro.verify import equiv
from repro.verify import (
    EquivBudget,
    check_equivalence,
    cone_support,
    equivalent,
    po_port,
)

XOR_BLIF = """
.model xor
.inputs a b
.outputs f
.names a b f
10 1
01 1
.end
"""

XOR_NAND_BLIF = """
.model xor_nand
.inputs a b
.outputs f
.names a b t
11 0
.names a t u
11 0
.names b t v
11 0
.names u v f
11 0
.end
"""

AND_BLIF = """
.model and
.inputs a b
.outputs f
.names a b f
11 1
.end
"""


class TestBudget:
    def test_levels(self):
        fast = EquivBudget.for_level("fast")
        full = EquivBudget.for_level("full")
        assert fast.exhaustive_limit == 12
        assert full.exhaustive_limit == 16
        assert full.num_vectors > fast.num_vectors

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            EquivBudget.for_level("paranoid")


class TestHelpers:
    def test_po_port_strips_wrapper(self):
        assert po_port("f__po") == "f"
        assert po_port("f") == "f"

    def test_cone_support(self):
        net = parse_blif(XOR_BLIF)
        (po,) = net.primary_outputs
        assert cone_support(net, po) == ["a", "b"]


class TestCheckEquivalence:
    def test_equivalent_structures(self):
        a = parse_blif(XOR_BLIF)
        b = parse_blif(XOR_NAND_BLIF)
        results = check_equivalence(a, b)
        assert all(r.passed for r in results)
        assert {r.name for r in results} == {
            "equiv.ports", "equiv.exhaustive", "equiv.random",
        }

    def test_different_function_fails_with_counterexample(self):
        results = check_equivalence(parse_blif(XOR_BLIF), parse_blif(AND_BLIF))
        by_name = {r.name: r for r in results}
        assert by_name["equiv.ports"].passed
        exhaustive = by_name["equiv.exhaustive"]
        assert not exhaustive.passed
        # The counterexample names a concrete differing assignment.
        assert "f:" in exhaustive.details and "a=" in exhaustive.details

    def test_port_mismatch_short_circuits(self):
        a = parse_blif(XOR_BLIF)
        b = parse_blif(XOR_BLIF.replace(".inputs a b", ".inputs a c")
                       .replace(".names a b f", ".names a c f"))
        results = check_equivalence(a, b)
        assert [r.name for r in results] == ["equiv.ports"]
        assert not results[0].passed
        assert "'b'" in results[0].details and "'c'" in results[0].details

    def test_random_tier_catches_large_cone_mismatch(self):
        # Force the random tier with an artificially small exhaustive
        # limit; the functions differ on half of all vectors, so 64
        # seeded random vectors expose it with certainty in practice.
        budget = EquivBudget(exhaustive_limit=1, num_vectors=64)
        results = check_equivalence(
            parse_blif(XOR_BLIF), parse_blif(AND_BLIF), budget)
        by_name = {r.name: r for r in results}
        assert by_name["equiv.exhaustive"].passed  # nothing ran there
        assert not by_name["equiv.random"].passed

    def test_random_tier_deterministic(self):
        budget = EquivBudget(exhaustive_limit=1, num_vectors=64, seed=3)
        first = check_equivalence(
            parse_blif(XOR_BLIF), parse_blif(AND_BLIF), budget)
        second = check_equivalence(
            parse_blif(XOR_BLIF), parse_blif(AND_BLIF), budget)
        assert [r.details for r in first] == [r.details for r in second]

    def test_equivalent_wrapper(self):
        assert equivalent(parse_blif(XOR_BLIF), parse_blif(XOR_NAND_BLIF))
        assert not equivalent(parse_blif(XOR_BLIF), parse_blif(AND_BLIF))


class TestAcrossRepresentations:
    def test_network_vs_subject_vs_mapped(self, big_lib, small_network):
        from repro.core.lily import LilyAreaMapper
        from repro.network.decompose import decompose_to_subject

        subject = decompose_to_subject(small_network)
        mapped = LilyAreaMapper(big_lib).map(subject).mapped
        assert equivalent(small_network, subject)
        assert equivalent(subject, mapped)
        assert equivalent(small_network, mapped)


class TestEvaluationWork:
    """Each tier evaluates exactly the nodes its cones hold."""

    @staticmethod
    def _evaluations(monkeypatch):
        calls = []
        real = equiv._eval_tt_words

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(equiv, "_eval_tt_words", counted)
        return calls

    @staticmethod
    def _gates(net, roots):
        return sum(1 for n in net.transitive_fanin(roots)
                   if not (n.is_pi or n.is_po))

    @pytest.fixture()
    def adder(self):
        from repro.circuits.arith import ripple_carry_adder
        from repro.network.decompose import decompose_to_subject

        net = ripple_carry_adder(6)
        return net, decompose_to_subject(net)

    def test_random_tier_evaluates_each_node_once(self, monkeypatch, adder):
        """Cones overlap along the carry chain; the union of the big
        cones is simulated once per side."""
        net, subject = adder
        calls = self._evaluations(monkeypatch)
        results = check_equivalence(
            net, subject, EquivBudget(exhaustive_limit=0, num_vectors=256))
        assert all(r.passed for r in results)
        assert "7 outputs" in results[2].target
        assert len(calls) == (self._gates(net, net.primary_outputs)
                              + self._gates(subject,
                                            subject.primary_outputs))

    def test_exhaustive_tier_evaluates_each_cone(self, monkeypatch, adder):
        net, subject = adder
        calls = self._evaluations(monkeypatch)
        results = check_equivalence(net, subject, EquivBudget())
        assert all(r.passed for r in results)
        assert "7 outputs" in results[1].target
        by_port = {po_port(po.name): po for po in subject.primary_outputs}
        assert len(calls) == sum(
            self._gates(net, [po]) + self._gates(subject,
                                                 [by_port[po_port(po.name)]])
            for po in net.primary_outputs)
