"""Pattern-graph generation: each library cell as a set of NAND2/INV trees.

DAGON represents every library gate by one or more *pattern graphs* built
from the base functions (Section 2).  We generate them automatically from
the cell's SOP cover: every binary-tree shape of the per-cube AND trees and
of the OR tree over cubes yields one pattern; patterns equivalent under a
pin permutation that is an automorphism of the cell function are
deduplicated (for a 6-input AND the 945 labelled trees collapse to the 6
Wedderburn–Etherington shapes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.library.cell import Cell, Library
from repro.network.logic import SopCover, TruthTable

__all__ = ["PatternKind", "PatternNode", "CellPattern", "PatternSet"]

#: Safety cap on generated (pre-dedup) trees per cell.
MAX_TREES_PER_CELL = 20000


class PatternKind(enum.Enum):
    """Node species of a pattern tree: the two base functions, or a pin."""

    NAND2 = "nand2"
    INV = "inv"
    LEAF = "leaf"


class PatternNode:
    """One vertex of a pattern tree.

    ``LEAF`` nodes carry the pin index they bind; interior nodes are NAND2
    or INV.  Pattern trees are immutable once built.
    """

    __slots__ = ("kind", "children", "pin_index", "_key")

    def __init__(
        self,
        kind: PatternKind,
        children: Sequence["PatternNode"] = (),
        pin_index: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.children: Tuple[PatternNode, ...] = tuple(children)
        self.pin_index = pin_index
        if kind is PatternKind.LEAF:
            if pin_index is None or self.children:
                raise ValueError("leaf needs a pin index and no children")
        elif kind is PatternKind.INV:
            if len(self.children) != 1:
                raise ValueError("INV pattern node needs one child")
        elif len(self.children) != 2:
            raise ValueError("NAND2 pattern node needs two children")
        self._key: Optional[tuple] = None

    @staticmethod
    def leaf(pin_index: int) -> "PatternNode":
        """A leaf binding cell pin ``pin_index``."""
        return PatternNode(PatternKind.LEAF, (), pin_index)

    @staticmethod
    def inv(child: "PatternNode") -> "PatternNode":
        """An inverter over ``child``."""
        return PatternNode(PatternKind.INV, (child,))

    @staticmethod
    def nand(a: "PatternNode", b: "PatternNode") -> "PatternNode":
        """A 2-input NAND over ``a`` and ``b``, in that child order."""
        return PatternNode(PatternKind.NAND2, (a, b))

    def key(self) -> tuple:
        """Commutatively-canonical structural key (NAND children sorted)."""
        if self._key is None:
            if self.kind is PatternKind.LEAF:
                self._key = ("L", self.pin_index)
            elif self.kind is PatternKind.INV:
                self._key = ("I", self.children[0].key())
            else:
                keys = sorted((self.children[0].key(), self.children[1].key()))
                self._key = ("N", keys[0], keys[1])
        return self._key

    def size(self) -> int:
        """Number of interior (gate) nodes."""
        if self.kind is PatternKind.LEAF:
            return 0
        return 1 + sum(c.size() for c in self.children)

    def depth(self) -> int:
        """Gate levels on the longest root-to-leaf path (0 for a leaf)."""
        if self.kind is PatternKind.LEAF:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def leaves(self) -> List[int]:
        """Pin indices in left-to-right order."""
        if self.kind is PatternKind.LEAF:
            return [self.pin_index]
        out: List[int] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the pattern over pin values (for self-checks)."""
        if self.kind is PatternKind.LEAF:
            return assignment[self.pin_index]
        if self.kind is PatternKind.INV:
            return not self.children[0].evaluate(assignment)
        return not (
            self.children[0].evaluate(assignment)
            and self.children[1].evaluate(assignment)
        )

    def __repr__(self) -> str:
        if self.kind is PatternKind.LEAF:
            return f"x{self.pin_index}"
        if self.kind is PatternKind.INV:
            return f"!({self.children[0]!r})"
        return f"NAND({self.children[0]!r}, {self.children[1]!r})"


@dataclass(frozen=True)
class CellPattern:
    """A pattern graph: a cell together with one of its NAND2/INV trees."""

    cell: Cell
    root: PatternNode

    @property
    def num_gates(self) -> int:
        """Number of base-function gates in the pattern tree."""
        return self.root.size()


def _splits(items: Tuple) -> Iterator[Tuple[Tuple, Tuple]]:
    """Unordered two-part partitions of ``items`` (first item stays left)."""
    n = len(items)
    first, rest = items[0], items[1:]
    for mask in range(1 << (n - 1)):
        left = [first]
        right = []
        for i, item in enumerate(rest):
            if (mask >> i) & 1:
                left.append(item)
            else:
                right.append(item)
        if right:
            yield tuple(left), tuple(right)


def _and_trees(
    leaves: Tuple[PatternNode, ...], invert: bool, budget: List[int]
) -> Iterator[PatternNode]:
    """All binary NAND/INV trees computing AND(leaves) (or its complement)."""
    if budget[0] <= 0:
        return
    if len(leaves) == 1:
        budget[0] -= 1
        yield PatternNode.inv(leaves[0]) if invert else leaves[0]
        return
    for left, right in _splits(leaves):
        for a in _and_trees(left, False, budget):
            for b in _and_trees(right, False, budget):
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                node = PatternNode.nand(a, b)
                yield node if invert else PatternNode.inv(node)


def _expr_trees(expr, pin_index: Dict[str, int], invert: bool, budget: List[int]):
    """All NAND2/INV trees realising an expression AST (or its complement).

    Works on the *factored form* from the library (as DAGON does), so an
    AOI222 stays three product terms rather than exploding into the flat
    SOP of its complement.
    """
    from repro.network.expr import And, Const, Not, Or, Var, Xor

    if isinstance(expr, Var):
        leaf = PatternNode.leaf(pin_index[expr.name])
        yield PatternNode.inv(leaf) if invert else leaf
        return
    if isinstance(expr, Not):
        yield from _expr_trees(expr.child, pin_index, not invert, budget)
        return
    if isinstance(expr, Xor):
        # Rewrite a ^ b as a*!b + !a*b and recurse (n-ary left-folded).
        a = expr.children[0]
        rest = expr.children[1] if len(expr.children) == 2 else Xor(expr.children[1:])
        rewritten = Or([And([a, Not(rest)]), And([Not(a), rest])])
        yield from _expr_trees(rewritten, pin_index, invert, budget)
        return
    if isinstance(expr, Const):
        raise ValueError("constant sub-expressions are not mappable patterns")

    if isinstance(expr, And):
        children = list(expr.children)
        want_invert = invert
    elif isinstance(expr, Or):
        # OR(xs) = !AND(!xs): negate the children, flip the root polarity.
        children = [Not(c) for c in expr.children]
        want_invert = not invert
    else:
        raise TypeError(f"unexpected expression node: {expr!r}")

    subtree_lists = []
    for child in children:
        subtree_lists.append(list(_expr_trees(child, pin_index, False, budget)))
    import itertools

    for combo in itertools.product(*subtree_lists):
        yield from _and_trees(tuple(combo), want_invert, budget)
        if budget[0] <= 0:
            return


def _cover_expression(cover: SopCover, pin_names: Sequence[str]):
    """An Or-of-And expression AST equivalent to an SOP cover."""
    from repro.network.expr import And, Not, Or, Var

    cube_exprs = []
    for cube in cover.cubes:
        literals = []
        for i, lit in enumerate(cube.mask):
            if lit == "-":
                continue
            var = Var(pin_names[i])
            literals.append(Not(var) if lit == "0" else var)
        if not literals:
            return None  # constant-ish cover; caller skips
        cube_exprs.append(literals[0] if len(literals) == 1 else And(literals))
    if not cube_exprs:
        return None
    return cube_exprs[0] if len(cube_exprs) == 1 else Or(cube_exprs)


def generate_patterns(cell: Cell) -> List[CellPattern]:
    """All structurally-distinct pattern trees for a cell.

    Trees are generated from the cell's factored expression and deduplicated
    under the cell's input automorphism group, then self-checked against the
    cell function.
    """
    pin_index = {name: i for i, name in enumerate(cell.pin_names)}
    budget = [MAX_TREES_PER_CELL]
    roots: List[PatternNode] = list(
        _expr_trees(cell.expression, pin_index, False, budget)
    )
    # Alternative decomposition: the flat SOP of the cell function.  The
    # subject graph is decomposed from node SOPs, so SOP-shaped patterns
    # (e.g. !a!c + !b!c for an AOI21) are the ones that actually anchor
    # there.  Skipped when the cover is large (the factored form suffices
    # and enumeration would explode).
    cover = cell.sop()
    total_literals = cover.num_literals
    if cover.num_cubes <= 4 and total_literals <= 10:
        sop_expr = _cover_expression(cover, cell.pin_names)
        if sop_expr is not None:
            roots.extend(_expr_trees(sop_expr, pin_index, False, budget))

    # A buffer's tree is a bare leaf; its pattern graph is the inverter pair.
    roots = [
        PatternNode.inv(PatternNode.inv(r)) if r.kind is PatternKind.LEAF else r
        for r in roots
    ]

    import math

    autos = cell.input_automorphisms()
    fully_symmetric = len(autos) == math.factorial(cell.num_inputs)
    seen: set = set()
    patterns: List[CellPattern] = []
    for root in roots:
        if fully_symmetric:
            # Any leaf labelling of a shape is equivalent: dedupe by shape.
            canonical = _shape_key(root)
        else:
            canonical = min(_key_under_perm(root, perm) for perm in autos)
        if canonical in seen:
            continue
        seen.add(canonical)
        _self_check(cell, root)
        patterns.append(CellPattern(cell, root))
    return patterns


def _shape_key(node: PatternNode) -> tuple:
    """Structural key ignoring leaf labels (for fully symmetric cells)."""
    if node.kind is PatternKind.LEAF:
        return ("L",)
    if node.kind is PatternKind.INV:
        return ("I", _shape_key(node.children[0]))
    keys = sorted((_shape_key(node.children[0]), _shape_key(node.children[1])))
    return ("N", keys[0], keys[1])


def _key_under_perm(node: PatternNode, perm: Sequence[int]) -> tuple:
    """Commutatively-canonical key with leaves relabelled through ``perm``."""
    if node.kind is PatternKind.LEAF:
        return ("L", perm[node.pin_index])
    if node.kind is PatternKind.INV:
        return ("I", _key_under_perm(node.children[0], perm))
    keys = sorted(
        (
            _key_under_perm(node.children[0], perm),
            _key_under_perm(node.children[1], perm),
        )
    )
    return ("N", keys[0], keys[1])


def _self_check(cell: Cell, root: PatternNode) -> None:
    """Verify the pattern realises exactly the cell function."""
    n = cell.num_inputs
    if sorted(set(root.leaves())) != list(range(n)):
        raise AssertionError(
            f"pattern for {cell.name!r} does not reference every pin once"
        )
    tt = TruthTable.from_function(
        n, lambda assignment: root.evaluate(assignment)
    )
    if tt != cell.truth_table:
        raise AssertionError(f"pattern for {cell.name!r} computes a wrong function")


class PatternSet:
    """All pattern graphs of a library, grouped by root kind.

    Patterns are grouped by the kind of their root node; the matcher
    hash-conses them into shared subtrees (``repro.match.treematch``).
    """

    def __init__(self, library: Library) -> None:
        self.library = library
        self.patterns: List[CellPattern] = []
        for cell in library:
            self.patterns.extend(generate_patterns(cell))
        self._by_root: Dict[PatternKind, List[CellPattern]] = {
            PatternKind.NAND2: [],
            PatternKind.INV: [],
        }
        for pat in self.patterns:
            if pat.root.kind is PatternKind.LEAF:
                raise AssertionError("degenerate single-leaf pattern")
            self._by_root[pat.root.kind].append(pat)

    def rooted_at(self, kind: PatternKind) -> List[CellPattern]:
        """Patterns whose root gate is of the given base-function kind."""
        return self._by_root.get(kind, [])

    def __len__(self) -> int:
        return len(self.patterns)

    def stats(self) -> Dict[str, int]:
        """Number of patterns per cell name."""
        per_cell: Dict[str, int] = {}
        for pat in self.patterns:
            per_cell[pat.cell.name] = per_cell.get(pat.cell.name, 0) + 1
        return per_cell


_PATTERN_CACHE: Dict[int, PatternSet] = {}


def pattern_set_for(library: Library) -> PatternSet:
    """Memoised :class:`PatternSet` construction (libraries are reused)."""
    key = id(library)
    cached = _PATTERN_CACHE.get(key)
    if cached is None or cached.library is not library:
        cached = PatternSet(library)
        _PATTERN_CACHE[key] = cached
    return cached
