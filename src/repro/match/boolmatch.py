"""Boolean matching by cut enumeration (the DAGON alternative).

Structural tree matching only finds a cell where the subject graph happens
to be decomposed in one of the cell's pattern shapes.  Boolean matching
sidesteps that: enumerate the k-feasible *cuts* of every subject node,
compute each cut's function, and look it up — canonical under input
permutation (P-equivalence) — in a table of library-cell functions.  Any
cone computing a library function matches, whatever its shape.

Input/output negations are deliberately not canonised away: a negated
match would need inverters the covering engine would have to synthesise;
restricting to P-equivalence keeps Boolean matches drop-in compatible
with structural :class:`~repro.match.treematch.Match` objects.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.library.cell import Cell, Library
from repro.library.patterns import CellPattern, pattern_set_for
from repro.match.treematch import Match
from repro.network.logic import TruthTable
from repro.network.subject import SubjectGraph, SubjectNode

__all__ = ["BooleanMatcher", "enumerate_cuts", "cut_function"]

#: Cuts retained per node during enumeration (priority: fewer leaves).
DEFAULT_CUTS_PER_NODE = 24


def enumerate_cuts(
    graph: SubjectGraph,
    k: int,
    cuts_per_node: int = DEFAULT_CUTS_PER_NODE,
) -> Dict[int, List[FrozenSet[SubjectNode]]]:
    """All k-feasible cuts per gate node (trivial cut excluded).

    Standard bottom-up enumeration: a cut of a NAND is the union of one
    cut from each fanin (fanin trivial cuts give the direct-fanin cut);
    the per-node list is pruned to ``cuts_per_node`` smallest.
    """
    # For every node we track its cut set *including* the trivial cut
    # {node}, which serves as the leaf choice for fanouts.
    table: Dict[int, List[FrozenSet[SubjectNode]]] = {}
    for node in graph.topological_order():
        if node.is_po:
            continue
        if not node.is_gate:
            table[node.uid] = [frozenset([node])]
            continue
        merged: Set[FrozenSet[SubjectNode]] = set()
        fanin_cut_lists = [
            table.get(f.uid, [frozenset([f])]) for f in node.fanins
        ]
        for combo in itertools.product(*fanin_cut_lists):
            union: FrozenSet[SubjectNode] = frozenset().union(*combo)
            if len(union) <= k:
                merged.add(union)
        ordered = sorted(
            merged, key=lambda c: (len(c), sorted(n.uid for n in c))
        )[:cuts_per_node]
        table[node.uid] = [frozenset([node])] + ordered
    # Strip the trivial cuts from the externally visible result.
    return {
        uid: [c for c in cuts if c != frozenset([graph_node])]
        for uid, cuts in table.items()
        for graph_node in [_node_of(graph, uid)]
        if _node_of(graph, uid).is_gate
    }


def _node_of(graph: SubjectGraph, uid: int) -> SubjectNode:
    # Nodes are append-only; uid indexes creation order but sweeping can
    # leave gaps, so use a lazily built map.
    cache = getattr(graph, "_uid_map", None)
    if cache is None or len(cache) != len(graph.nodes):
        cache = {n.uid: n for n in graph.nodes}
        graph._uid_map = cache  # type: ignore[attr-defined]
    return cache[uid]


def _cone_nodes(
    root: SubjectNode, leaves: FrozenSet[SubjectNode]
) -> Optional[List[SubjectNode]]:
    """Interior nodes of the cut cone in topological order (root last).

    Returns ``None`` if a path from the root escapes to a PI/constant not
    in the leaf set (not a valid cut — cannot happen for enumerated cuts,
    checked defensively).
    """
    order: List[SubjectNode] = []
    state: Dict[int, int] = {}

    def visit(node: SubjectNode) -> bool:
        if node in leaves:
            return True
        if not node.is_gate:
            return False
        s = state.get(node.uid, 0)
        if s == 2:
            return True
        state[node.uid] = 1
        for f in node.fanins:
            if not visit(f):
                return False
        state[node.uid] = 2
        order.append(node)
        return True

    if not visit(root):
        return None
    return order


def cut_function(
    root: SubjectNode, leaves: Sequence[SubjectNode]
) -> Optional[TruthTable]:
    """Truth table of ``root`` over the ordered cut leaves."""
    cone = _cone_nodes(root, frozenset(leaves))
    if cone is None:
        return None
    n = len(leaves)
    values: Dict[int, TruthTable] = {
        leaf.uid: TruthTable.variable(i, n) for i, leaf in enumerate(leaves)
    }
    for node in cone:
        fanin_tts = [values[f.uid] for f in node.fanins]
        local = node.truth_table()
        # Compose: evaluate the (1- or 2-input) local function.
        if len(fanin_tts) == 1:
            values[node.uid] = ~fanin_tts[0] if local == TruthTable(1, 0b01) \
                else fanin_tts[0]
        else:
            values[node.uid] = fanin_tts[0].nand(fanin_tts[1])
    return values[root.uid]


class BooleanMatcher:
    """Cut-based P-equivalent matching against a library.

    Drop-in alternative to the structural
    :class:`~repro.match.treematch.Matcher`: ``matches_at`` returns the
    same :class:`Match` objects, so either can drive the covering engine.
    Requires :meth:`bind` against the subject graph to enumerate cuts.
    """

    def __init__(
        self,
        library: Library,
        cuts_per_node: int = DEFAULT_CUTS_PER_NODE,
        tree_mode: bool = False,
    ) -> None:
        self.library = library
        self.cuts_per_node = cuts_per_node
        self.tree_mode = tree_mode
        self.k = library.max_fanin()
        # P-canonical function -> cells computing it.
        self._cells_by_p: Dict[Tuple[int, int], List[Cell]] = {}
        for cell in library:
            key = self._p_key(cell.truth_table)
            self._cells_by_p.setdefault(key, []).append(cell)
        patterns = pattern_set_for(library)
        self._a_pattern: Dict[str, CellPattern] = {}
        for pattern in patterns.patterns:
            self._a_pattern.setdefault(pattern.cell.name, pattern)
        self._graph: Optional[SubjectGraph] = None
        self._cuts: Dict[int, List[FrozenSet[SubjectNode]]] = {}
        #: Match list per gate uid of the bound graph, built on first ask.
        self._found: Dict[int, List[Match]] = {}

    @staticmethod
    def _p_key(tt: TruthTable) -> Tuple[int, int]:
        live = tt.shrink_to_support()[0]
        canonical = live.p_canonical()
        return (canonical.num_inputs, canonical.bits)

    def bind(self, graph: SubjectGraph) -> None:
        """Enumerate cuts for a subject graph (required before matching)."""
        self._graph = graph
        self._cuts = enumerate_cuts(graph, self.k, self.cuts_per_node)
        self._found = {}

    def matches_at(self, node: SubjectNode) -> List[Match]:
        """Every library cell P-equivalent to a cut function of ``node``.

        The list is built on the first ask and kept until the next
        :meth:`bind`.
        """
        if not node.is_gate:
            return []
        if self._graph is None:
            raise RuntimeError("BooleanMatcher.bind(graph) must run first")
        found = self._found.get(node.uid)
        if found is None:
            found = self._found[node.uid] = self._enumerate(node)
        return found

    def _enumerate(self, node: SubjectNode) -> List[Match]:
        """Match every enumerated cut of ``node`` against the library."""
        found: List[Match] = []
        seen: Set[tuple] = set()
        for cut in self._cuts.get(node.uid, []):
            leaves = sorted(cut, key=lambda n: n.uid)
            tt = cut_function(node, leaves)
            if tt is None:
                continue
            live_tt, keep = tt.shrink_to_support()
            if len(keep) != len(leaves):
                continue  # cut with vacuous leaves; a smaller cut covers it
            for cell in self._cells_by_p.get(self._p_key(live_tt), []):
                if cell.num_inputs != len(leaves):
                    continue
                perm = self._pin_assignment(cell, live_tt)
                if perm is None:
                    continue
                inputs = tuple(leaves[perm[i]] for i in range(len(leaves)))
                cone = _cone_nodes(node, frozenset(leaves)) or []
                if self.tree_mode and any(
                    n is not node and n.num_fanouts != 1 for n in cone
                ):
                    continue
                key = (cell.name, tuple(n.uid for n in inputs))
                if key in seen:
                    continue
                seen.add(key)
                found.append(
                    Match(self._a_pattern[cell.name], node, inputs, cone)
                )
        return found

    @staticmethod
    def _pin_assignment(cell: Cell, tt: TruthTable) -> Optional[Tuple[int, ...]]:
        """Permutation ``perm`` with cell(x_pin) == cut(leaf perm[pin])."""
        n = cell.num_inputs
        for perm in itertools.permutations(range(n)):
            if tt.permuted(perm) == cell.truth_table:
                # cell pin i reads leaf perm[i]... verify orientation:
                # permuted(perm): new var j reads old var perm[j], i.e.
                # cell pin j corresponds to cut leaf perm[j].
                return perm
        return None


class UnionMatcher:
    """Union of a structural and a Boolean matcher (deduplicated)."""

    def __init__(self, structural, boolean: BooleanMatcher) -> None:
        self.structural = structural
        self.boolean = boolean

    def bind(self, graph: SubjectGraph) -> None:
        """Bind both matchers: each keeps per-graph state."""
        self.structural.bind(graph)
        self.boolean.bind(graph)

    def matches_at(self, node: SubjectNode) -> List[Match]:
        """Structural matches first, then the Boolean ones not among them.

        Two matches are the same when they bind one cell to the same
        inputs over the same covered nodes (uid-ordered in every match).
        """
        merged: Dict[tuple, Match] = {}
        for match in self.structural.matches_at(node) + \
                self.boolean.matches_at(node):
            key = (match.cell.name, tuple(n.uid for n in match.inputs),
                   tuple(n.uid for n in match.covered))
            merged.setdefault(key, match)
        return list(merged.values())
