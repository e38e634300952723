"""The compact match representation.

Matches are the covering front end's largest data structure: one per
pattern binding at every subject gate.  A match is an immutable slotted
value whose ``covered`` nodes are a uid-ordered tuple, root included.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import pytest

from repro.circuits.suite import build_circuit
from repro.library.patterns import pattern_set_for
from repro.match.treematch import Match, Matcher
from repro.network.decompose import decompose_to_subject

#: Traced bytes a bind may keep per match at ``synth:19910611:300``.  A
#: frozen dataclass with a frozenset ``covered`` kept 530; the slotted
#: match with a uid tuple keeps about 220.
MAX_BYTES_PER_MATCH = 300


@pytest.fixture(scope="module")
def bound(big_lib):
    subject = decompose_to_subject(build_circuit("misex1"))
    matcher = Matcher(pattern_set_for(big_lib))
    matcher.bind(subject)
    return subject, matcher


def _all_matches(subject, matcher):
    return [m for node in subject.nodes if node.is_gate
            for m in matcher.matches_at(node)]


def test_match_has_no_instance_dict(bound):
    match = _all_matches(*bound)[0]
    assert not hasattr(match, "__dict__")
    with pytest.raises(AttributeError):
        match.root = match.inputs[0]
    with pytest.raises(AttributeError):
        del match.covered


def test_covered_is_uid_ordered_with_root_and_inner_without(bound):
    matches = _all_matches(*bound)
    assert any(len(m.covered) > 2 for m in matches)
    for match in matches:
        assert isinstance(match.covered, tuple)
        uids = [n.uid for n in match.covered]
        assert uids == sorted(set(uids))
        assert match.root in match.covered
        inner = match.inner
        assert match.root not in inner
        assert list(inner) == [n for n in match.covered
                               if n is not match.root]


def test_constructor_orders_any_collection(bound):
    match = next(m for m in _all_matches(*bound) if len(m.covered) > 2)
    again = Match(match.pattern, match.root, match.inputs,
                  set(reversed(match.covered)))
    assert again.covered == match.covered
    assert again == match and hash(again) == hash(match)
    assert copy.copy(match) == match
    # Pickling copies the subject nodes too: compare by uid.
    loaded = pickle.loads(pickle.dumps(match))
    assert loaded.cell.name == match.cell.name
    assert [n.uid for n in loaded.covered] == [n.uid for n in match.covered]


def test_bind_memory_per_match(big_lib):
    """Traced bytes a bind keeps, per match, stay under the bound."""
    subject = decompose_to_subject(build_circuit("synth:19910611:300"))
    matcher = Matcher(pattern_set_for(big_lib))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matcher.bind(subject)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = len(_all_matches(subject, matcher))
    assert count > 10000
    assert kept / count <= MAX_BYTES_PER_MATCH, (
        f"{kept / count:.0f} B per match over {count} matches")
