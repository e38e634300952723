"""The table matcher against the recursive oracle on the random fleet.

Random multi-level circuits reach pattern/subject combinations the
suite circuits do not: reconvergence right below a gate, repeated-pin
patterns meeting shared fanins, stems inside pattern depth.  Every
gate's match list must equal the oracle's, entry for entry and in
order, in cone and tree mode, with the big and the tiny library.
"""

from __future__ import annotations

import pytest

from oracles.match import OracleMatcher
from repro.library.patterns import pattern_set_for
from repro.library.standard import big_library, tiny_library
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject

pytestmark = [pytest.mark.property, pytest.mark.slow]

FLEET_CASES = 40


def _row(match):
    return (match.pattern, match.root, match.inputs, match.covered)


@pytest.mark.parametrize("case", range(FLEET_CASES))
def test_fleet_lists_match_oracle(case, fleet_case, replay_hint):
    net, _rng = fleet_case("match", case)
    subject = decompose_to_subject(net)
    for library in (big_library(), tiny_library()):
        patterns = pattern_set_for(library)
        for tree_mode in (False, True):
            matcher = Matcher(patterns, tree_mode=tree_mode)
            matcher.bind(subject)
            oracle = OracleMatcher(patterns, tree_mode=tree_mode)
            for node in subject.gates:
                got = [_row(m) for m in matcher.matches_at(node)]
                want = [_row(m) for m in oracle.matches_at(node)]
                assert got == want, (
                    f"{library.name}/tree_mode={tree_mode}: lists differ "
                    f"at {node.name} {replay_hint('match', case)}")
