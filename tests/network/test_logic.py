"""Truth tables, cubes and SOP covers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.logic import Cube, SopCover, TruthTable


def random_tables(max_inputs=4):
    return st.integers(min_value=0, max_value=max_inputs).flatmap(
        lambda n: st.builds(
            TruthTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1)
        )
    )


class TestCube:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cube("10x")

    def test_literals(self):
        assert Cube("1-0").num_literals == 2
        assert Cube("---").num_literals == 0

    def test_evaluate(self):
        c = Cube("1-0")
        assert c.evaluate([True, False, False])
        assert c.evaluate([True, True, False])
        assert not c.evaluate([False, True, False])
        assert not c.evaluate([True, True, True])

    def test_evaluate_wrong_width(self):
        with pytest.raises(ValueError):
            Cube("1-").evaluate([True])

    def test_restricted(self):
        assert Cube("10-1").restricted([0, 3]) == Cube("11")


class TestSopCover:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            SopCover(2, [Cube("1")])

    def test_constants(self):
        zero = SopCover.constant(False, 3)
        one = SopCover.constant(True, 3)
        assert not zero.evaluate([True, True, True])
        assert one.evaluate([False, False, False])

    def test_num_literals(self):
        cover = SopCover(3, [Cube("1-0"), Cube("011")])
        assert cover.num_literals == 5

    def test_equality_is_functional(self):
        a = SopCover(2, [Cube("1-"), Cube("-1")])
        b = SopCover(2, [Cube("-1"), Cube("1-")])
        c = SopCover(2, [Cube("11"), Cube("10"), Cube("01")])
        assert a == b
        assert a == c  # same function, different covers

    def test_to_truth_table(self):
        cover = SopCover(2, [Cube("11")])
        assert cover.to_truth_table() == TruthTable(2, 0b1000)


class TestTruthTableBasics:
    def test_constant(self):
        assert TruthTable.constant(True, 2).bits == 0b1111
        assert TruthTable.constant(False, 2).bits == 0
        assert TruthTable.constant(True, 2).is_constant() is True
        assert TruthTable(2, 0b1010).is_constant() is None

    def test_variable(self):
        x0 = TruthTable.variable(0, 2)
        x1 = TruthTable.variable(1, 2)
        assert x0.bits == 0b1010
        assert x1.bits == 0b1100

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.variable(2, 2)

    def test_connectives(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101
        assert a.nand(b).bits == 0b0111

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            TruthTable.variable(0, 2) & TruthTable.variable(0, 3)

    def test_evaluate(self):
        maj = TruthTable.from_function(3, lambda bits: sum(bits) >= 2)
        assert maj.evaluate([True, True, False])
        assert not maj.evaluate([True, False, False])


class TestTruthTableStructure:
    def test_cofactor(self):
        a = TruthTable.variable(0, 2)
        b = TruthTable.variable(1, 2)
        f = a & b
        assert f.cofactor(0, True) == b
        assert f.cofactor(0, False) == TruthTable.constant(False, 2)

    def test_support(self):
        b = TruthTable.variable(1, 3)
        assert b.support() == [1]
        assert not b.depends_on(0)
        assert b.depends_on(1)

    def test_shrink_to_support(self):
        b = TruthTable.variable(1, 3)
        shrunk, kept = b.shrink_to_support()
        assert kept == [1]
        assert shrunk == TruthTable.variable(0, 1)

    def test_project_live_variable_raises(self):
        f = TruthTable.variable(0, 2) & TruthTable.variable(1, 2)
        with pytest.raises(ValueError):
            f.project([0])

    def test_permuted(self):
        a = TruthTable.variable(0, 2)
        assert a.permuted([1, 0]) == TruthTable.variable(1, 2)

    def test_permuted_invalid(self):
        with pytest.raises(ValueError):
            TruthTable.variable(0, 2).permuted([0, 0])

    def test_with_phases(self):
        a = TruthTable.variable(0, 1)
        assert a.with_phases([True], False) == ~a
        assert a.with_phases([False], True) == ~a
        assert a.with_phases([True], True) == a

    @given(random_tables(3), st.integers(0, 2), st.booleans())
    def test_cofactor_idempotent(self, tt, var, value):
        var = min(var, max(tt.num_inputs - 1, 0))
        if tt.num_inputs == 0:
            return
        once = tt.cofactor(var, value)
        assert once.cofactor(var, value) == once
        assert not once.depends_on(var)


class TestCanonisation:
    def test_p_canonical_symmetric(self):
        f = TruthTable.variable(0, 2) & TruthTable.variable(1, 2)
        assert f.p_canonical() == f


class TestSopExtraction:
    @given(random_tables(4))
    @settings(max_examples=120)
    def test_roundtrip(self, tt):
        """to_sop() always reproduces the exact function."""
        assert tt.to_sop().to_truth_table() == tt

    def test_constant_covers(self):
        assert TruthTable.constant(True, 2).to_sop().evaluate([False, False])
        assert not TruthTable.constant(False, 2).to_sop().evaluate([True, True])

    def test_prime_cover_is_small_for_and(self):
        f = TruthTable.variable(0, 3) & TruthTable.variable(1, 3) \
            & TruthTable.variable(2, 3)
        cover = f.to_sop()
        assert cover.num_cubes == 1
        assert cover.cubes[0].mask == "111"

    def test_xor_cover(self):
        f = TruthTable.variable(0, 2) ^ TruthTable.variable(1, 2)
        cover = f.to_sop()
        assert cover.num_cubes == 2
        assert cover.num_literals == 4
