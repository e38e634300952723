"""The recursive structural matcher: the oracle of the table matcher.

Production :class:`repro.match.treematch.Matcher` builds every subject
gate's matches bottom-up from its fanins' tables.  This module keeps the
search it replaced: for each candidate pattern, a recursive walk of the
pattern tree against the subject node, trying both fanin orders at every
NAND2.  Its match lists define the expected answer, entry for entry and
in order, because the covering DP breaks cost ties by match order.
:func:`find_matches` asks the production matcher about one node, for
tests that need a node's matches as input rather than as the answer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.library.patterns import PatternKind, PatternNode, PatternSet
from repro.match.treematch import Match, Matcher
from repro.network.subject import SubjectGraph, SubjectNode, SubjectNodeType

_KIND_FOR_TYPE = {
    SubjectNodeType.NAND2: PatternKind.NAND2,
    SubjectNodeType.INV: PatternKind.INV,
}


def _match_pattern(
    pnode: PatternNode, snode: SubjectNode
) -> Iterator[Tuple[Dict[int, SubjectNode], FrozenSet[SubjectNode]]]:
    """Yield (pin binding, covered interior nodes) for pattern-at-node."""
    if pnode.kind is PatternKind.LEAF:
        yield {pnode.pin_index: snode}, frozenset()
        return
    expected = _KIND_FOR_TYPE.get(snode.type)
    if expected is not pnode.kind:
        return
    if pnode.kind is PatternKind.INV:
        for binding, covered in _match_pattern(pnode.children[0],
                                               snode.fanins[0]):
            yield binding, covered | {snode}
        return
    # NAND2: try both child orders (commutative matching).
    pa, pb = pnode.children
    fa, fb = snode.fanins
    orders = [(fa, fb)]
    if fa is not fb:
        orders.append((fb, fa))
    emitted: Set[tuple] = set()
    for sa, sb in orders:
        for bind_a, cov_a in _match_pattern(pa, sa):
            for bind_b, cov_b in _match_pattern(pb, sb):
                merged = _merge_bindings(bind_a, bind_b)
                if merged is None:
                    continue
                covered = cov_a | cov_b | {snode}
                key = (tuple(sorted((k, v.uid) for k, v in merged.items())),
                       tuple(sorted(n.uid for n in covered)))
                if key in emitted:
                    continue
                emitted.add(key)
                yield merged, covered


def _merge_bindings(
    a: Dict[int, SubjectNode], b: Dict[int, SubjectNode]
) -> Optional[Dict[int, SubjectNode]]:
    """Union two pin bindings; ``None`` if the same pin binds differently."""
    merged = dict(a)
    for pin, node in b.items():
        existing = merged.get(pin)
        if existing is None:
            merged[pin] = node
        elif existing is not node:
            return None
    return merged


def _within_tree(root: SubjectNode, covered: FrozenSet[SubjectNode]) -> bool:
    """Tree-mode legality: no covered non-root node may be a stem."""
    return all(n is root or n.num_fanouts == 1 for n in covered)


class OracleMatcher:
    """Tries every pattern of the root's kind by recursive search.

    Each node's list is searched once per :meth:`bind` and then kept, so
    a mapper driven by the oracle asks it as often as it likes.
    """

    def __init__(self, patterns: PatternSet, tree_mode: bool = False) -> None:
        self.patterns = patterns
        self.tree_mode = tree_mode
        self._found: Dict[SubjectNode, List[Match]] = {}

    def bind(self, graph: SubjectGraph) -> None:
        """Forget the lists of the previous graph."""
        self._found = {}

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """All matches whose root is ``snode``, in pattern-set order."""
        found = self._found.get(snode)
        if found is None:
            found = self._found[snode] = self._search(snode)
        return found

    def _search(self, snode: SubjectNode) -> List[Match]:
        kind = _KIND_FOR_TYPE.get(snode.type)
        if kind is None:
            return []
        found: List[Match] = []
        seen: Set[tuple] = set()
        for pattern in self.patterns.rooted_at(kind):
            for binding, covered in _match_pattern(pattern.root, snode):
                if len(binding) != pattern.cell.num_inputs:
                    continue
                nodes = list(binding.values())
                if len({n.uid for n in nodes}) != len(nodes):
                    continue  # distinct pins must bind distinct nodes
                # A leaf may not also be an interior node of the match.
                if any(node in covered for node in nodes):
                    continue
                if self.tree_mode and not _within_tree(snode, covered):
                    continue
                inputs = tuple(
                    binding[i] for i in range(pattern.cell.num_inputs)
                )
                key = (pattern.cell.name, tuple(n.uid for n in inputs),
                       tuple(sorted(n.uid for n in covered)))
                if key in seen:
                    continue
                seen.add(key)
                found.append(Match(pattern, snode, inputs,
                                   frozenset(covered)))
        return found


def find_matches(
    snode: SubjectNode, patterns: PatternSet, tree_mode: bool = False
) -> List[Match]:
    """The production matcher's matches rooted at one subject node, from
    a fresh :class:`~repro.match.treematch.Matcher` (no bound graph)."""
    return Matcher(patterns, tree_mode).matches_at(snode)
