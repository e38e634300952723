"""Algebraic laws of the truth-table representation (property-based)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.logic import TruthTable


def tables(n=3):
    return st.builds(
        TruthTable, st.just(n), st.integers(0, (1 << (1 << n)) - 1)
    )


class TestBooleanAlgebra:
    @given(tables(), tables())
    def test_de_morgan(self, a, b):
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    @given(tables())
    def test_double_complement(self, a):
        assert ~~a == a

    @given(tables(), tables())
    def test_commutativity(self, a, b):
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        assert (a ^ b) == (b ^ a)

    @given(tables(), tables(), tables())
    @settings(max_examples=50)
    def test_distributivity(self, a, b, c):
        assert (a & (b | c)) == ((a & b) | (a & c))

    @given(tables())
    def test_xor_self_cancels(self, a):
        assert (a ^ a) == TruthTable.constant(False, a.num_inputs)

    @given(tables(), tables())
    def test_nand_definition(self, a, b):
        assert a.nand(b) == ~(a & b)

    @given(tables())
    def test_absorption(self, a):
        one = TruthTable.constant(True, a.num_inputs)
        zero = TruthTable.constant(False, a.num_inputs)
        assert (a & one) == a
        assert (a | zero) == a
        assert (a & zero) == zero
        assert (a | one) == one


class TestShannonExpansion:
    @given(tables(), st.integers(0, 2))
    def test_expansion(self, f, var):
        """f = x·f_x + !x·f_!x (Shannon)."""
        x = TruthTable.variable(var, f.num_inputs)
        pos = f.cofactor(var, True)
        neg = f.cofactor(var, False)
        assert ((x & pos) | (~x & neg)) == f

    @given(tables(), st.integers(0, 2))
    def test_support_after_cofactor(self, f, var):
        assert var not in f.cofactor(var, True).support()

    @given(tables())
    def test_support_subset(self, f):
        assert set(f.support()) <= set(range(f.num_inputs))


class TestPermutationGroup:
    @given(tables())
    def test_identity_permutation(self, f):
        assert f.permuted([0, 1, 2]) == f

    @given(tables())
    def test_permutation_inverse(self, f):
        perm = [2, 0, 1]
        inverse = [1, 2, 0]
        assert f.permuted(perm).permuted(inverse) == f

    @given(tables())
    def test_p_canonical_is_invariant(self, f):
        assert f.permuted([1, 0, 2]).p_canonical() == f.p_canonical()

    @given(tables())
    def test_phase_involution(self, f):
        phases = [True, False, True]
        assert f.with_phases(phases, False).with_phases(phases, False) == f


def _ones(tt) -> int:
    """Number of minterms of ``tt``."""
    return bin(tt.bits).count("1")


class TestCounting:
    @given(tables(), tables())
    def test_inclusion_exclusion(self, a, b):
        assert _ones(a | b) == _ones(a) + _ones(b) - _ones(a & b)

    @given(tables())
    def test_complement_count(self, a):
        total = 1 << a.num_inputs
        assert _ones(a) + _ones(~a) == total
