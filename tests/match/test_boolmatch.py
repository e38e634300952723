"""Boolean (cut-based) matching."""

from __future__ import annotations

import pytest

from repro.library.patterns import pattern_set_for
from repro.library.standard import big_library
from repro.match.boolmatch import (
    BooleanMatcher,
    UnionMatcher,
    cut_function,
    enumerate_cuts,
)
from repro.match.treematch import Matcher
from repro.network.blif import parse_blif
from repro.network.decompose import decompose_to_subject
from repro.network.logic import TruthTable
from repro.network.simulate import networks_equivalent
from repro.network.subject import SubjectGraph


@pytest.fixture()
def and3_graph():
    g = SubjectGraph()
    a, b, c = (g.add_primary_input(x) for x in "abc")
    inner = g.inv(g.nand(a, b))
    root = g.inv(g.nand(inner, c))
    g.add_primary_output("f", root)
    return g, root


class TestCutEnumeration:
    def test_cuts_of_and3(self, and3_graph):
        g, root = and3_graph
        cuts = enumerate_cuts(g, k=4)
        root_cuts = cuts[root.uid]
        leaf_sets = {frozenset(n.name for n in cut) for cut in root_cuts}
        assert {"a", "b", "c"} in leaf_sets  # the full-cone cut
        assert all(len(cut) <= 4 for cut in root_cuts)

    def test_trivial_cut_excluded(self, and3_graph):
        g, root = and3_graph
        cuts = enumerate_cuts(g, k=4)
        assert frozenset([root]) not in cuts[root.uid]

    def test_k_limits_width(self):
        g = SubjectGraph()
        ins = [g.add_primary_input(f"x{i}") for i in range(4)]
        n1 = g.nand(ins[0], ins[1])
        n2 = g.nand(ins[2], ins[3])
        root = g.nand(n1, n2)
        g.add_primary_output("f", root)
        cuts = enumerate_cuts(g, k=2)
        assert all(len(c) <= 2 for c in cuts[root.uid])


class TestCutFunction:
    def test_and3(self, and3_graph):
        g, root = and3_graph
        leaves = [g["a"], g["b"], g["c"]]
        tt = cut_function(root, leaves)
        expected = TruthTable.from_function(3, lambda v: all(v))
        assert tt == expected

    def test_invalid_cut(self, and3_graph):
        g, root = and3_graph
        tt = cut_function(root, [g["a"]])  # b, c escape: not a cut
        assert tt is None


class TestBooleanMatcher:
    def test_finds_and3_any_shape(self, big_lib, and3_graph):
        g, root = and3_graph
        matcher = BooleanMatcher(big_lib)
        matcher.bind(g)
        names = {m.cell.name for m in matcher.matches_at(root)}
        assert "and3" in names

    def test_finds_xor_without_pattern_shape(self, big_lib):
        """An XOR decomposed in a non-pattern shape still matches xor2."""
        net = parse_blif(""".model x
.inputs a b
.outputs f
.names a b n
11 1
.names a b o
00 1
.names n o f
00 1
.end
""")
        subject = decompose_to_subject(net)
        root = subject.primary_outputs[0].fanins[0]
        matcher = BooleanMatcher(big_lib)
        matcher.bind(subject)
        names = {m.cell.name for m in matcher.matches_at(root)}
        assert "xor2" in names

    def test_pin_assignment_correct(self, big_lib):
        """Asymmetric cell (aoi21): pins must bind the right leaves."""
        net = parse_blif(""".model m
.inputs a b c
.outputs f
.names a b c f
0-0 1
-00 1
.end
""")
        subject = decompose_to_subject(net)
        root = subject.primary_outputs[0].fanins[0]
        matcher = BooleanMatcher(big_lib)
        matcher.bind(subject)
        aoi = [m for m in matcher.matches_at(root) if m.cell.name == "aoi21"]
        assert aoi
        match = aoi[0]
        # aoi21 = !(a*b + c): pin c must bind the subject's 'c' input.
        bound = {pin.name: node.name for pin, node in
                 zip(match.cell.pins, match.inputs)}
        assert bound["c"] == "c"
        assert {bound["a"], bound["b"]} == {"a", "b"}

    def test_requires_bind(self, big_lib, and3_graph):
        g, root = and3_graph
        with pytest.raises(RuntimeError):
            BooleanMatcher(big_lib).matches_at(root)

    def test_mapping_with_boolean_matcher(self, big_lib, small_network):
        from repro.map.mis import MisAreaMapper

        subject = decompose_to_subject(small_network)
        result = MisAreaMapper(
            big_lib, matcher=BooleanMatcher(big_lib)
        ).map(subject)
        assert networks_equivalent(small_network, result.mapped)

    def test_boolean_never_worse_than_structural(self, big_lib):
        """On area, cut-based covers are at least as good (they are a
        superset of structural covers up to the cut bound)."""
        from repro.map.mis import MisAreaMapper
        from repro.circuits.random_logic import random_network

        net = random_network("bm", 6, 3, 14, seed=8)
        subject = decompose_to_subject(net)
        structural = MisAreaMapper(big_lib).map(subject)
        union = MisAreaMapper(
            big_lib,
            matcher=UnionMatcher(
                Matcher(pattern_set_for(big_lib)), BooleanMatcher(big_lib)
            ),
        ).map(subject)
        assert union.cell_area <= structural.cell_area + 1e-9
        assert networks_equivalent(net, union.mapped)


class TestUnionMatcher:
    def test_dedup(self, big_lib, and3_graph):
        g, root = and3_graph
        union = UnionMatcher(
            Matcher(pattern_set_for(big_lib)), BooleanMatcher(big_lib)
        )
        union.bind(g)
        matches = union.matches_at(root)
        keys = [
            (m.cell.name, tuple(n.uid for n in m.inputs),
             tuple(sorted(n.uid for n in m.covered)))
            for m in matches
        ]
        assert len(keys) == len(set(keys))

    def test_one_mapper_maps_two_graphs(self, big_lib):
        """A ``UnionMatcher`` reused across subject graphs must rebind its
        structural side too: each graph's lists hold the structural
        matches the oracle finds there, and the structural matcher holds
        nothing of the graph before (an unbound one would keep every
        graph's tables, and answer for them)."""
        from oracles.match import OracleMatcher
        from repro.circuits.suite import build_circuit
        from repro.map.mis import MisAreaMapper

        patterns = pattern_set_for(big_lib)
        mapper = MisAreaMapper(
            big_lib,
            matcher=UnionMatcher(Matcher(patterns), BooleanMatcher(big_lib)),
        )
        oracle = OracleMatcher(patterns)

        def key(m):
            return (m.pattern, m.root, m.inputs, m.covered)

        previous = None
        for name in ("misex1", "b9"):
            net = build_circuit(name)
            subject = decompose_to_subject(net)
            result = mapper.map(subject)
            assert networks_equivalent(net, result.mapped)
            for node in subject.gates:
                found = {key(m) for m in mapper.matcher.matches_at(node)}
                missing = [m for m in oracle.matches_at(node)
                           if key(m) not in found]
                assert not missing, f"{name}: {node.name} lost {missing}"
            if previous is not None:
                with pytest.raises(RuntimeError, match="bind its graph"):
                    mapper.matcher.structural.matches_at(previous.gates[0])
            previous = subject
