"""Signature-memoizing, index-pruned structural matcher.

Drop-in :class:`~repro.match.treematch.Matcher` replacement used by the
mappers when the corresponding :class:`~repro.perf.options.PerfOptions`
switches are on.  Three layers, outermost first:

1. **Signature memo** — the canonical truncated-subtree signature
   (:mod:`repro.perf.signature`) keys a table of match *templates*
   (pattern + input/covered node indices in the signature's first-visit
   enumeration); signature-equal nodes re-bind the templates instead of
   re-running the commutative matcher.
2. **Pattern index** — first-time signatures enumerate only the patterns
   the :class:`~repro.perf.patindex.PatternIndex` deems plausible.
3. The inherited naive enumeration.

Both layers preserve the naive matcher's match order exactly, which the
DP cover's tie-breaking observes; the golden-equivalence tests assert
bit-identical mappings.  The matcher is safe to share across worker
threads: memo entries are deterministic pure functions of structure, so
racing writers store identical values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.library.patterns import CellPattern, PatternSet
from repro.match.treematch import _KIND_FOR_TYPE, Match, Matcher
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.perf.patindex import PatternIndex
from repro.perf.signature import subtree_signature

__all__ = ["MemoMatcher"]

#: One memoized match: (pattern, input node indices, covered node indices).
_Template = Tuple[CellPattern, Tuple[int, ...], Tuple[int, ...]]


class MemoMatcher(Matcher):
    """A :class:`Matcher` with signature memoization and pattern indexing."""

    def __init__(
        self,
        patterns: PatternSet,
        tree_mode: bool = False,
        memoize: bool = True,
        index: bool = True,
        shared_index: "Optional[PatternIndex]" = None,
        shared_templates: "Optional[Dict[tuple, List[_Template]]]" = None,
    ) -> None:
        """``shared_index`` / ``shared_templates`` let a resident service
        (``repro.serve``) reuse one prebuilt :class:`PatternIndex` and one
        cross-job template memo: both are pure functions of library/structure,
        so concurrent writers only ever store identical values.  Per-graph
        state (``_heights``) stays private to each matcher instance."""
        super().__init__(patterns, tree_mode=tree_mode)
        self.memoize = memoize
        if shared_index is not None:
            self.index: Optional[PatternIndex] = shared_index
        else:
            self.index = PatternIndex(patterns) if index else None
        self._max_depth = max(
            (p.root.depth() for p in patterns.patterns), default=0
        )
        #: signature -> match templates (structural, valid across graphs).
        self._templates: Dict[tuple, List[_Template]] = (
            shared_templates if shared_templates is not None else {}
        )
        #: uid -> gate height of the currently bound graph.
        self._heights: Dict[int, int] = {}

    def bind(self, subject: SubjectGraph) -> None:
        """Reset per-graph state (gate heights key off node uids)."""
        self._heights = {}

    # -- gate heights (for the index's embeddability filter) -----------------

    def _gate_height(self, node: SubjectNode) -> int:
        h = self._heights.get(node.uid)
        if h is not None:
            return h
        heights = self._heights
        stack = [node]
        while stack:
            n = stack[-1]
            if n.uid in heights:
                stack.pop()
                continue
            pending = [
                f for f in n.fanins if f.is_gate and f.uid not in heights
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            heights[n.uid] = 1 + max(
                (heights[f.uid] for f in n.fanins if f.is_gate), default=0
            )
        return heights[node.uid]

    # -- matching ------------------------------------------------------------

    def _find(self, snode: SubjectNode, kind) -> List[Match]:
        full = self.patterns.rooted_at(kind)
        if self.index is None:
            return self._enumerate(snode, full)
        candidates = self.index.candidates(snode, self._gate_height(snode))
        if OBS.enabled:
            OBS.metrics.counter("perf.patterns_pruned").inc(
                len(full) - len(candidates)
            )
        return self._enumerate(snode, candidates)

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """Every pattern match rooted at ``snode``.

        With memoization, nodes whose truncated subtrees share a
        canonical signature share one match list, re-bound to each
        node's own subject nodes; the result equals a fresh search.
        """
        kind = _KIND_FOR_TYPE.get(snode.type)
        if kind is None:
            return []
        if not self.memoize:
            return self._find(snode, kind)
        sig, nodes = subtree_signature(
            snode, self._max_depth, tree_mode=self.tree_mode
        )
        if sig is None:
            if OBS.enabled:
                OBS.metrics.counter("perf.sig_over_budget").inc()
            return self._find(snode, kind)
        templates = self._templates.get(sig)
        if templates is None:
            found = self._find(snode, kind)
            index_of = {n.uid: i for i, n in enumerate(nodes)}
            self._templates[sig] = [
                (
                    m.pattern,
                    tuple(index_of[v.uid] for v in m.inputs),
                    tuple(index_of[c.uid] for c in m.covered),
                )
                for m in found
            ]
            if OBS.enabled:
                OBS.metrics.counter("perf.sig_memo_misses").inc()
            return found
        if OBS.enabled:
            OBS.metrics.counter("perf.sig_memo_hits").inc()
        return [
            Match(
                pattern,
                snode,
                tuple(nodes[i] for i in input_idx),
                frozenset(nodes[i] for i in covered_idx),
            )
            for pattern, input_idx, covered_idx in templates
        ]
