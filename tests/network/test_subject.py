"""Subject graph structure: strashing, simplification, trees and cones."""

from __future__ import annotations

import pytest

from repro.network.subject import SubjectGraph, SubjectNodeType


class TestStrashing:
    def test_nand_commutative_hash(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        assert g.nand(a, b) is g.nand(b, a)

    def test_inv_shared(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        assert g.inv(a) is g.inv(a)

    def test_double_inverter_collapses(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        assert g.inv(g.inv(a)) is a

    def test_nand_same_input_is_inv(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        n = g.nand(a, a)
        assert n.type is SubjectNodeType.INV
        assert n is g.inv(a)

    def test_constant_folding(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        one = g.constant(True)
        zero = g.constant(False)
        assert g.nand(a, zero) is g.constant(True)
        assert g.nand(a, one) is g.inv(a)
        assert g.inv(one) is zero
        assert g.constant(True) is one  # shared

    def test_po_cannot_drive(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        po = g.add_primary_output("f", a)
        with pytest.raises(ValueError):
            g.nand(po, a)
        with pytest.raises(ValueError):
            g.inv(po)


def build_shared():
    """Two POs sharing a stem: f = !(ab)·c style, g = !(ab)."""
    g = SubjectGraph()
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    c = g.add_primary_input("c")
    n1 = g.nand(a, b)          # stem
    i1 = g.inv(n1)
    n2 = g.nand(i1, c)
    g.add_primary_output("f", n2)
    g.add_primary_output("g", n1)
    return g, n1, i1, n2


class TestStructureQueries:
    def test_stem_detection(self):
        g, n1, i1, n2 = build_shared()
        assert n1.is_stem
        assert not i1.is_stem

    def test_cones(self):
        g, n1, i1, n2 = build_shared()
        po_f = g.primary_outputs[0]
        po_g = g.primary_outputs[1]
        assert g.cone_nodes(po_f) == {n1, i1, n2}
        assert g.cone_nodes(po_g) == {n1}

    def test_topological(self):
        g, n1, i1, n2 = build_shared()
        order = g.topological_order()
        index = {n.uid: i for i, n in enumerate(order)}
        assert index[n1.uid] < index[i1.uid] < index[n2.uid]

    def test_sweep_dangling(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        live = g.nand(a, b)
        dead = g.nand(g.inv(a), b)
        g.add_primary_output("f", live)
        removed = g.sweep_dangling()
        assert removed == 2  # the dead NAND and the INV feeding it
        g.check()
        # Strash caches are cleaned: re-creating the dead node works.
        again = g.nand(g.inv(a), b)
        assert again.type is SubjectNodeType.NAND2

    def test_stats_and_check(self):
        g, *_ = build_shared()
        s = g.stats()
        assert s["nand2"] == 2
        assert s["inv"] == 1
        g.check()

    def test_truth_tables(self):
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        assert g.nand(a, b).truth_table().bits == 0b0111
        assert g.inv(a).truth_table().bits == 0b01
        with pytest.raises(ValueError):
            a.truth_table()
