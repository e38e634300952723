"""The table matcher against the recursive oracle, gate by gate.

The covering DP breaks cost ties by match order, so the table matcher
must reproduce the recursive search's lists exactly: the same pattern
objects, inputs and covered sets, in the same order, at every gate.
Checked on every Table 1/2 circuit and on generated circuits, in cone
and tree mode, with the big and the tiny library.  The random fleet
lives in ``tests/properties/test_match_fleet.py``.
"""

from __future__ import annotations

import pytest

from oracles.match import OracleMatcher
from repro.circuits.suite import TABLE1_CIRCUITS, TABLE2_CIRCUITS, build_circuit
from repro.library.patterns import pattern_set_for
from repro.library.standard import big_library, tiny_library
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject

CIRCUITS = sorted(set(TABLE1_CIRCUITS) | set(TABLE2_CIRCUITS))
LIBRARIES = {"big": big_library, "tiny": tiny_library}
MODES = {"cone": False, "tree": True}


def _row(match):
    return (match.pattern, match.root, match.inputs, match.covered)


def assert_same_lists(subject, patterns, tree_mode, label):
    """Every gate's table-matcher list equals the oracle's, in order."""
    matcher = Matcher(patterns, tree_mode=tree_mode)
    matcher.bind(subject)
    oracle = OracleMatcher(patterns, tree_mode=tree_mode)
    gates = 0
    for node in subject.nodes:
        if not node.is_gate:
            continue
        gates += 1
        got = [_row(m) for m in matcher.matches_at(node)]
        want = [_row(m) for m in oracle.matches_at(node)]
        assert got == want, f"{label}: lists differ at {node.name}"
    assert gates == len(subject.gates)


@pytest.fixture(scope="module")
def subjects():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = decompose_to_subject(build_circuit(name))
        return cache[name]

    return get


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("library", LIBRARIES)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_table_circuits_match_oracle(subjects, circuit, library, mode):
    patterns = pattern_set_for(LIBRARIES[library]())
    assert_same_lists(subjects(circuit), patterns, MODES[mode],
                      f"{circuit}/{library}/{mode}")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("library", LIBRARIES)
def test_synth_1000_matches_oracle(subjects, library, mode):
    name = "synth:19910611:1000"
    patterns = pattern_set_for(LIBRARIES[library]())
    assert_same_lists(subjects(name), patterns, MODES[mode],
                      f"{name}/{library}/{mode}")


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("library", LIBRARIES)
def test_synth_4000_matches_oracle(subjects, library, mode):
    name = "synth:19910611:4000"
    patterns = pattern_set_for(LIBRARIES[library]())
    assert_same_lists(subjects(name), patterns, MODES[mode],
                      f"{name}/{library}/{mode}")


class TestUnboundQueries:
    """``matches_at`` without ``bind`` builds the node's fanin cone."""

    @pytest.mark.parametrize("mode", MODES)
    def test_unbound_lists_equal_bound_lists(self, subjects, big_lib, mode):
        subject = subjects("C880")
        patterns = pattern_set_for(big_lib)
        bound = Matcher(patterns, tree_mode=MODES[mode])
        bound.bind(subject)
        unbound = Matcher(patterns, tree_mode=MODES[mode])
        # Outputs first: the first queries build whole cones at once.
        for node in reversed(subject.nodes):
            got = [_row(m) for m in unbound.matches_at(node)]
            assert got == [_row(m) for m in bound.matches_at(node)]

    def test_repeated_calls_answer_the_same(self, subjects, big_lib):
        subject = subjects("misex1")
        matcher = Matcher(pattern_set_for(big_lib))
        root = subject.primary_outputs[0].fanins[0]
        first = [_row(m) for m in matcher.matches_at(root)]
        assert first
        assert [_row(m) for m in matcher.matches_at(root)] == first

    def test_bound_matcher_refuses_other_graphs(self, subjects, big_lib):
        matcher = Matcher(pattern_set_for(big_lib))
        matcher.bind(subjects("misex1"))
        stranger = subjects("b9").gates[0]
        with pytest.raises(RuntimeError, match="bind its graph first"):
            matcher.matches_at(stranger)

    def test_rebinding_replaces_the_lists(self, subjects, big_lib):
        patterns = pattern_set_for(big_lib)
        matcher = Matcher(patterns)
        matcher.bind(subjects("misex1"))
        subject = subjects("b9")
        matcher.bind(subject)
        oracle = OracleMatcher(patterns)
        for node in subject.gates:
            assert ([_row(m) for m in matcher.matches_at(node)]
                    == [_row(m) for m in oracle.matches_at(node)])

