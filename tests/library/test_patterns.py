"""Pattern-graph generation."""

from __future__ import annotations

import pytest

from repro.library.cell import Cell, Library, Pin, PinTiming
from repro.library.patterns import (
    PatternKind,
    PatternNode,
    PatternSet,
    generate_patterns,
    pattern_set_for,
)
from repro.library.standard import big_library


def cell(name, expr, pins, area=1000.0):
    return Cell(
        name, area, expr, [Pin(p, 0.25, PinTiming.uniform(1, 0.5)) for p in pins]
    )


class TestPatternNode:
    def test_leaf(self):
        leaf = PatternNode.leaf(0)
        assert leaf.kind is PatternKind.LEAF
        assert leaf.size() == 0
        assert leaf.leaves() == [0]

    def test_nand_shape(self):
        tree = PatternNode.nand(PatternNode.leaf(0), PatternNode.leaf(1))
        assert tree.size() == 1
        assert tree.depth() == 1
        assert not tree.evaluate([True, True])
        assert tree.evaluate([True, False])

    def test_key_commutative(self):
        a = PatternNode.nand(PatternNode.leaf(0), PatternNode.leaf(1))
        b = PatternNode.nand(PatternNode.leaf(1), PatternNode.leaf(0))
        assert a.key() == b.key()

    def test_invalid_arities(self):
        with pytest.raises(ValueError):
            PatternNode(PatternKind.INV, ())
        with pytest.raises(ValueError):
            PatternNode(PatternKind.NAND2, (PatternNode.leaf(0),))
        with pytest.raises(ValueError):
            PatternNode(PatternKind.LEAF, (), None)


class TestGeneration:
    def test_inverter(self):
        pats = generate_patterns(cell("inv", "!a", ["a"]))
        assert len(pats) == 1
        assert pats[0].root.kind is PatternKind.INV
        assert pats[0].num_gates == 1

    def test_buffer_is_inverter_pair(self):
        pats = generate_patterns(cell("buf", "a", ["a"]))
        assert len(pats) == 1
        root = pats[0].root
        assert root.kind is PatternKind.INV
        assert root.children[0].kind is PatternKind.INV
        assert pats[0].num_gates == 2

    def test_nand2_single(self):
        pats = generate_patterns(cell("nand2", "!(a*b)", ["a", "b"]))
        assert len(pats) == 1
        assert pats[0].num_gates == 1

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6)])
    def test_nandn_wedderburn_etherington(self, n, count):
        """Fully-symmetric n-ary NAND patterns = unlabelled binary shapes."""
        names = "abcdef"[:n]
        expr = "!(" + "*".join(names) + ")"
        pats = generate_patterns(cell(f"nand{n}", expr, list(names)))
        assert len(pats) == count

    def test_aoi21_shared_pin(self):
        """AOI21 gets both the factored-form and the SOP-form pattern;
        the SOP form repeats pin c (shared literal)."""
        pats = generate_patterns(cell("aoi21", "!(a*b+c)", ["a", "b", "c"]))
        assert len(pats) == 2
        leaf_counts = sorted(len(p.root.leaves()) for p in pats)
        assert leaf_counts == [3, 4]  # factored: 3 leaves; SOP: c twice
        for p in pats:
            assert sorted(set(p.root.leaves())) == [0, 1, 2]

    def test_xor_expansion(self):
        pats = generate_patterns(cell("xor2", "a^b", ["a", "b"]))
        assert len(pats) >= 1
        for p in pats:
            assert p.root.evaluate([True, False])
            assert not p.root.evaluate([True, True])

    def test_patterns_compute_cell_function(self, big_lib):
        for c in big_lib:
            for pattern in generate_patterns(c):
                for m in range(1 << c.num_inputs):
                    bits = [(m >> i) & 1 == 1 for i in range(c.num_inputs)]
                    assert pattern.root.evaluate(bits) == c.truth_table.evaluate(bits), c.name


class TestPatternSet:
    def test_indexing_by_root(self, big_lib):
        ps = pattern_set_for(big_lib)
        nand_rooted = ps.rooted_at(PatternKind.NAND2)
        inv_rooted = ps.rooted_at(PatternKind.INV)
        assert len(nand_rooted) + len(inv_rooted) == len(ps)
        assert all(p.root.kind is PatternKind.NAND2 for p in nand_rooted)

    def test_cached(self, big_lib):
        assert pattern_set_for(big_lib) is pattern_set_for(big_lib)

    def test_stats_cover_all_cells(self, big_lib):
        stats = pattern_set_for(big_lib).stats()
        assert set(stats) == {c.name for c in big_lib}
        assert all(v >= 1 for v in stats.values())
