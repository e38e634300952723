"""Matching: bind library cells onto subject-graph nodes — structurally
(DAGON pattern trees) or Boolean (cut enumeration + P-canonical lookup)."""

from repro.match.treematch import Match, Matcher
from repro.match.boolmatch import BooleanMatcher, UnionMatcher

__all__ = [
    "Match",
    "Matcher",
    "BooleanMatcher",
    "UnionMatcher",
]
