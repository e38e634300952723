"""Structural tree matching."""

from __future__ import annotations

import pytest

from oracles.match import find_matches
from repro.library.patterns import pattern_set_for
from repro.match.treematch import Matcher
from repro.network.blif import parse_blif
from repro.network.decompose import decompose_to_subject
from repro.network.subject import SubjectGraph


def match_cells(node, patterns, tree_mode=False):
    return sorted({m.cell.name for m in find_matches(node, patterns, tree_mode)})


class TestBasicMatching:
    def test_nand2_and_inv(self, big_lib):
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n = g.nand(a, b)
        i = g.inv(n)
        g.add_primary_output("f", i)
        assert "nand2" in match_cells(n, ps)
        names = match_cells(i, ps)
        assert "inv1" in names
        assert "and2" in names  # INV(NAND(a,b)) = AND

    def test_no_match_at_terminals(self, big_lib):
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a = g.add_primary_input("a")
        po = g.add_primary_output("f", a)
        assert find_matches(a, ps) == []
        assert find_matches(po, ps) == []

    def test_commutative(self, big_lib):
        """NOR2 = NAND(INV a, INV b) matches regardless of child order."""
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        n = g.nand(g.inv(a), g.inv(b))
        g.add_primary_output("f", n)
        names = match_cells(n, ps)
        assert "or2" in names  # NAND(!a,!b) = a+b

    def test_deep_match_nand3(self, big_lib):
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a, b, c = (g.add_primary_input(x) for x in "abc")
        inner = g.inv(g.nand(a, b))
        root = g.nand(inner, c)
        g.add_primary_output("f", root)
        names = match_cells(root, ps)
        assert "nand3" in names
        m = next(m for m in find_matches(root, ps) if m.cell.name == "nand3")
        assert {n.name for n in m.inputs} == {"a", "b", "c"}
        assert len(m.covered) == 3  # root NAND, inner INV, inner NAND
        assert len(m.inner) == 2

    def test_repeated_pin_requires_same_node(self, big_lib):
        """AOI-style patterns with a shared literal bind it consistently."""
        ps = pattern_set_for(big_lib)
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
        names = match_cells(root, ps)
        assert "aoi21" in names  # f = !(ab + c)

    def test_input_binding_order_matches_pins(self, big_lib):
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a, b = g.add_primary_input("a"), g.add_primary_input("b")
        n = g.nand(a, b)
        g.add_primary_output("f", n)
        for m in find_matches(n, ps):
            assert len(m.inputs) == m.cell.num_inputs


class TestTreeModeRestriction:
    def test_stem_blocks_match(self, big_lib):
        """In tree mode a match may not swallow a multi-fanout node."""
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a, b, c = (g.add_primary_input(x) for x in "abc")
        stem = g.nand(a, b)
        inv = g.inv(stem)
        root = g.nand(inv, c)
        g.add_primary_output("f", root)
        g.add_primary_output("g", stem)  # makes stem multi-fanout
        cone_names = match_cells(root, ps, tree_mode=False)
        tree_names = match_cells(root, ps, tree_mode=True)
        assert "nand3" in cone_names  # cone mode may duplicate the stem
        assert "nand3" not in tree_names
        assert "nand2" in tree_names

    def test_single_fanout_allows_match(self, big_lib):
        ps = pattern_set_for(big_lib)
        g = SubjectGraph()
        a, b, c = (g.add_primary_input(x) for x in "abc")
        inner = g.inv(g.nand(a, b))
        root = g.nand(inner, c)
        g.add_primary_output("f", root)
        assert "nand3" in match_cells(root, ps, tree_mode=True)


class TestMatcherBulk:
    def test_all_matches_keys(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        matcher = Matcher(pattern_set_for(big_lib))
        matcher.bind(subject)
        gates = [n for n in subject.nodes if n.is_gate]
        assert gates
        assert all(matcher.matches_at(n) for n in gates), \
            "every gate needs >= 1 match"

    def test_match_repr(self, big_lib):
        g = SubjectGraph()
        a, b = g.add_primary_input("a"), g.add_primary_input("b")
        n = g.nand(a, b)
        g.add_primary_output("f", n)
        m = find_matches(n, pattern_set_for(big_lib))[0]
        assert "nand2" in repr(m) or m.cell.name in repr(m)
