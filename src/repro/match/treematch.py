"""Structural tree matching of pattern graphs on the subject graph.

A *match* anchors a pattern tree's root at a subject node: interior pattern
nodes must coincide with subject NAND2/INV nodes (commutatively for NAND),
and pattern leaves bind to arbitrary subject nodes, one per cell pin.
Repeated pins in a pattern (e.g. the shared ``!c`` of an AOI21) must bind
to the same subject node; distinct pins must bind distinct nodes.

Two covering regimes use the same matcher:

* **tree mode** (DAGON): a match may not cross a multi-fanout stem — every
  covered non-root node must have exactly one fanout.
* **cone mode** (MIS, Lily): matches may cover stems; nodes whose signal is
  still needed elsewhere get duplicated by later matches (Section 2's dove
  reincarnation).

Matching is bottom-up tree pattern matching (Hoffmann & O'Donnell, JACM
1982), the twig-style matcher DAGON took from code generation.  The
pattern forest of a :class:`PatternSet` is hash-consed once into distinct
pin-labelled subtrees (:class:`_Forest`).  :meth:`Matcher.bind` then walks
the subject gates in topological order and builds each gate's *table*:
for every subtree of the gate's kind, the ``(binding, covered)`` results
of that subtree rooted at the gate, combined from the fanins' tables.  No
(subtree, gate) pair is matched twice.  A gate's table is released once
its last gate fanout has been built; only the final match lists live for
the whole binding.

Every table entry is a ``(binding, covered)`` tuple: ``binding`` holds the
subject nodes bound to the subtree's pins in ascending pin order, and
``covered`` is the frozenset of subject gates under the subtree's interior
nodes, which the parents' tables union.  A kept :class:`Match` shares the
entry's ``binding`` as its ``inputs`` and stores ``covered`` once as a
uid-ordered tuple.  Entries are combined in exactly the order of a
recursive search (fanin order ``(a, b)`` before ``(b, a)``, left child
outer, first occurrence kept), so each gate's match list equals, entry for
entry, what trying every pattern recursively at that gate yields.  The
covering DP breaks cost ties by match order, so that order is part of the
contract; ``tests/oracles/match.py`` keeps the recursive search as the
oracle.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.library.patterns import (
    CellPattern,
    PatternKind,
    PatternNode,
    PatternSet,
)
from repro.network.subject import SubjectGraph, SubjectNode, SubjectNodeType
from repro.obs import OBS

__all__ = ["Match", "Matcher", "find_matches"]

_NAND2 = SubjectNodeType.NAND2

#: Fanin codes for the forest's buckets: what a pattern child can find
#: below a gate.  ``_OPAQUE`` fanins (terminals, or gates whose table is
#: unusable) bind only pattern leaves.
_OPAQUE, _CODE_INV, _CODE_NAND = 0, 1, 2

_EMPTY: FrozenSet[SubjectNode] = frozenset()

#: One table entry: (pin-ordered binding, covered subject gates).
_Entry = Tuple[Tuple[SubjectNode, ...], FrozenSet[SubjectNode]]


_UID = attrgetter("uid")


class Match:
    """A pattern bound at a subject node: an immutable value.

    Attributes:
        pattern: the pattern graph (cell + tree).
        root: subject node where the pattern root (the cell output) sits.
        inputs: subject nodes feeding the cell, indexed by cell pin.
        covered: subject nodes merged into this gate (root included), in
            ascending uid order.  Given as any collection of nodes; the
            constructor stores them as a uid-ordered tuple, which is a
            fraction of a frozenset's size, and which makes every sum
            over them independent of set iteration order.

    Matches are the matcher's largest data structure (one per pattern
    binding at every subject gate), so a match has no instance
    ``__dict__``: its four fields are slots, set once.
    """

    __slots__ = ("pattern", "root", "inputs", "covered")

    def __init__(
        self,
        pattern: CellPattern,
        root: SubjectNode,
        inputs: Tuple[SubjectNode, ...],
        covered: Iterable[SubjectNode],
    ) -> None:
        _set_pattern(self, pattern)
        _set_root(self, root)
        _set_inputs(self, inputs)
        _set_covered(self, tuple(sorted(covered, key=_UID)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Match is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Match is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.pattern, self.root, self.inputs, self.covered)

    def __reduce__(self):
        return Match, self._key()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def cell(self):
        """The library cell this match instantiates."""
        return self.pattern.cell

    @property
    def inner(self) -> Tuple[SubjectNode, ...]:
        """Covered nodes other than the root (the prospective doves), in
        uid order."""
        root = self.root
        return tuple(n for n in self.covered if n is not root)

    def __repr__(self) -> str:
        ins = ",".join(n.name for n in self.inputs)
        return f"Match({self.cell.name} @ {self.root.name} <- [{ins}])"


# The slots' own setters: ``Match.__setattr__`` refuses every write.
_set_pattern = Match.pattern.__set__
_set_root = Match.root.__set__
_set_inputs = Match.inputs.__set__
_set_covered = Match.covered.__set__


class _Forest:
    """A pattern set's trees, hash-consed into distinct subtrees.

    Subtrees are told apart by shape and by how their pins repeat and
    order, not by the pin labels themselves: ``NAND(x0, x1)`` and
    ``NAND(x2, x3)`` are one subtree, since an entry's binding lists the
    subtree's pins in ascending order.  Interior subtrees get ids in
    creation order; a leaf child is written as ``-1``, since a leaf
    matches any subject node with an empty cover.

    Attributes:
        nand: NAND2 subtree records bucketed by ``3 * code_a + code_b``
            of the gate's fanin codes; a record sits in every bucket
            where one of the two fanin orders can possibly match.
            Records are ``(sid, left, right, mode, pick, checks)``: the
            children's ids, and how to merge their bindings (``mode`` 0
            concatenates, 1 reorders with ``pick``, 2 also requires the
            ``(left index, right index)`` pairs in ``checks`` to bind one
            node, for pins both children use).
        inv: INV subtree records ``(sid, child)`` bucketed by fanin code.
        roots: per root kind, ``(pattern, sid, shared)`` in pattern-set
            order; ``shared`` marks patterns whose cell has another
            pattern of that kind, which need the per-cell dedupe.
    """

    def __init__(self, patterns: PatternSet) -> None:
        self._ids: Dict[tuple, int] = {}
        #: Subtree id -> the fanin code its root needs.
        self._codes: List[int] = []
        self._nand_records: List[tuple] = []
        self._inv_records: List[tuple] = []
        self.roots: Dict[PatternKind, Tuple[tuple, ...]] = {}
        for kind in (PatternKind.NAND2, PatternKind.INV):
            candidates = patterns.rooted_at(kind)
            per_cell: Dict[str, int] = {}
            for pattern in candidates:
                name = pattern.cell.name
                per_cell[name] = per_cell.get(name, 0) + 1
            rows = []
            for pattern in candidates:
                sid, pins = self._intern(pattern.root)
                # Every pin must be bound, or the pattern never matches.
                if pins != tuple(range(pattern.cell.num_inputs)):
                    continue
                rows.append((pattern, sid, per_cell[pattern.cell.name] > 1))
            self.roots[kind] = tuple(rows)
        codes = (_OPAQUE, _CODE_INV, _CODE_NAND)
        self.inv = tuple(
            tuple(r for r in self._inv_records if self._fits(r[1], code))
            for code in codes
        )
        self.nand = tuple(
            tuple(
                r for r in self._nand_records
                if (self._fits(r[1], ca) and self._fits(r[2], cb))
                or (self._fits(r[1], cb) and self._fits(r[2], ca))
            )
            for ca in codes
            for cb in codes
        )

    def _fits(self, child: int, code: int) -> bool:
        """Can pattern child ``child`` match below a fanin of ``code``?"""
        return child < 0 or self._codes[child] == code

    def _intern(self, node: PatternNode) -> Tuple[int, Tuple[int, ...]]:
        """``(id, sorted pin labels)`` of ``node``'s subtree.

        Creates the records of subtrees not seen before; a leaf is
        ``-1``.
        """
        if node.kind is PatternKind.LEAF:
            return -1, (node.pin_index,)
        if node.kind is PatternKind.INV:
            child, pins = self._intern(node.children[0])
            key: tuple = ("I", child)
        else:
            left, pins_a = self._intern(node.children[0])
            right, pins_b = self._intern(node.children[1])
            pins = tuple(sorted(set(pins_a) | set(pins_b)))
            rank = {pin: i for i, pin in enumerate(pins)}
            ranks_a = tuple(rank[pin] for pin in pins_a)
            ranks_b = tuple(rank[pin] for pin in pins_b)
            key = ("N", left, ranks_a, right, ranks_b)
        sid = self._ids.get(key)
        if sid is not None:
            return sid, pins
        sid = self._ids[key] = len(self._codes)
        if node.kind is PatternKind.INV:
            self._codes.append(_CODE_INV)
            self._inv_records.append((sid, child))
            return sid, pins
        concat = ranks_a + ranks_b
        pick = tuple(concat.index(rank) for rank in range(len(pins)))
        checks = tuple(
            (i, ranks_b.index(rank)) for i, rank in enumerate(ranks_a)
            if rank in ranks_b
        )
        if checks:
            mode = 2
        elif pick == tuple(range(len(concat))):
            mode = 0
        else:
            mode = 1
        self._codes.append(_CODE_NAND)
        self._nand_records.append((sid, left, right, mode,
                                   _picker(pick), checks))
        return sid, pins


def _picker(indices: Tuple[int, ...]):
    """A callable selecting ``indices`` of a tuple, always as a tuple."""
    if len(indices) == 1:
        (index,) = indices
        return lambda values: (values[index],)
    return itemgetter(*indices)


#: The forest of every live pattern set (pattern sets are immutable).
_FORESTS: "WeakKeyDictionary[PatternSet, _Forest]" = WeakKeyDictionary()


def _forest_for(patterns: PatternSet) -> _Forest:
    """The hash-consed forest of ``patterns``, built once per pattern set."""
    forest = _FORESTS.get(patterns)
    if forest is None:
        forest = _FORESTS[patterns] = _Forest(patterns)
    return forest


class Matcher:
    """Finds all legal matches of a pattern set at subject nodes.

    :meth:`bind` builds the match lists of every gate of a subject graph
    at once; the covering engine binds before it asks.  An unbound
    matcher answers :meth:`matches_at` by building the tables of the
    node's fanin cone on first use and keeping them, so repeated or
    overlapping queries cost nothing extra.  A bound matcher refuses
    nodes of any other graph: bind that graph first.
    """

    def __init__(self, patterns: PatternSet, tree_mode: bool = False) -> None:
        self.patterns = patterns
        self.tree_mode = tree_mode
        self._forest = _forest_for(patterns)
        self._graph: Optional[SubjectGraph] = None
        #: Final match list of every built gate.
        self._lists: Dict[SubjectNode, List[Match]] = {}
        #: Tables still needed by unbuilt fanouts: subtree id -> entries.
        self._tables: Dict[SubjectNode, Dict[int, List[_Entry]]] = {}

    def bind(self, graph: SubjectGraph) -> None:
        """Build the match list of every gate of ``graph``.

        Replaces whatever the matcher held before.  Tables are released
        as soon as every gate fanout has read them.
        """
        self._graph = graph
        self._lists = {}
        self._tables = {}
        # Creation order is topological: a node's fanins exist before it.
        self._build([n for n in graph.nodes if n.is_gate], release=True)

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """All matches whose root is ``snode``, in pattern-set order."""
        found = self._lists.get(snode)
        if found is not None:
            return found
        if not snode.is_gate:
            return []
        if self._graph is not None:
            raise RuntimeError(
                f"{snode.name} is not a gate of the bound subject graph "
                f"{self._graph.name!r}; bind its graph first"
            )
        self._build(self._unbuilt_cone(snode), release=False)
        return self._lists[snode]

    def all_matches(self, graph: SubjectGraph) -> Dict[int, List[Match]]:
        """Binds ``graph``; matches for every gate, keyed by node uid."""
        self.bind(graph)
        return {node.uid: found for node, found in self._lists.items()}

    def _unbuilt_cone(self, root: SubjectNode) -> List[SubjectNode]:
        """Gates below ``root`` (inclusive) not built yet, fanins first."""
        lists = self._lists
        order: List[SubjectNode] = []
        seen = {root}
        stack = [(root, iter(root.fanins))]
        while stack:
            node, fanins = stack[-1]
            for fanin in fanins:
                if fanin.is_gate and fanin not in lists and fanin not in seen:
                    seen.add(fanin)
                    stack.append((fanin, iter(fanin.fanins)))
                    break
            else:
                stack.pop()
                order.append(node)
        return order

    def _build(self, gates: List[SubjectNode], release: bool) -> None:
        """Build the tables and match lists of ``gates`` (fanins first).

        With ``release``, a table is kept only while a gate fanout still
        has to read it; otherwise every table stays for later queries.
        """
        forest = self._forest
        nand_buckets, inv_buckets = forest.nand, forest.inv
        nand_roots = forest.roots[PatternKind.NAND2]
        inv_roots = forest.roots[PatternKind.INV]
        tree_mode = self.tree_mode
        tables = self._tables
        lists = self._lists
        readers: Dict[SubjectNode, int] = {}
        stored = found_total = 0

        def usable(node: SubjectNode):
            """``node``'s table and fanin code, as a pattern child sees it."""
            table = tables.get(node)
            if table is None or (tree_mode and len(node.fanouts) != 1):
                return None, _OPAQUE
            return table, _CODE_NAND if node.type is _NAND2 else _CODE_INV

        for g in gates:
            fanins = g.fanins
            gset = frozenset((g,))
            table: Dict[int, List[_Entry]] = {}
            if g.type is _NAND2:
                fa, fb = fanins
                ta, code_a = usable(fa)
                tb, code_b = usable(fb)
                la = [((fa,), _EMPTY)]
                lb = [((fb,), _EMPTY)]
                orders = [(la, ta, lb, tb)]
                if fa is not fb:
                    orders.append((lb, tb, la, ta))
                for sid, a, b, mode, pick, checks in nand_buckets[
                        3 * code_a + code_b]:
                    cand: List[_Entry] = []
                    for lx, tx, ly, ty in orders:
                        if a < 0:
                            left = lx
                        elif tx is None or a not in tx:
                            continue
                        else:
                            left = tx[a]
                        if b < 0:
                            right = ly
                        elif ty is None or b not in ty:
                            continue
                        else:
                            right = ty[b]
                        if mode == 0:
                            cand += [(ba + bb, ca | cb | gset)
                                     for ba, ca in left for bb, cb in right]
                        elif mode == 1:
                            cand += [(pick(ba + bb), ca | cb | gset)
                                     for ba, ca in left for bb, cb in right]
                        else:
                            for ba, ca in left:
                                for bb, cb in right:
                                    for i, j in checks:
                                        if ba[i] is not bb[j]:
                                            break
                                    else:
                                        cand.append((pick(ba + bb),
                                                     ca | cb | gset))
                    if cand:
                        if len(cand) > 1:
                            # First occurrence wins, as in a recursive search.
                            cand = list(dict.fromkeys(cand))
                        table[sid] = cand
                        stored += len(cand)
                roots = nand_roots
            else:
                (f0,) = fanins
                t0, code = usable(f0)
                leaf = [((f0,), gset)]
                for sid, child in inv_buckets[code]:
                    if child < 0:
                        table[sid] = leaf
                        stored += 1
                    elif t0 is not None and child in t0:
                        table[sid] = [(b, c | gset) for b, c in t0[child]]
                        stored += len(table[sid])
                roots = inv_roots

            found: List[Match] = []
            seen = set()
            for pattern, sid, shared in roots:
                entries = table.get(sid)
                if entries is None:
                    continue
                for binding, covered in entries:
                    if len(binding) > 1 and len(set(binding)) != len(binding):
                        continue  # distinct pins must bind distinct nodes
                    if not covered.isdisjoint(binding):
                        continue  # a leaf may not be covered too
                    if shared:
                        key = (pattern.cell.name, binding, covered)
                        if key in seen:
                            continue
                        seen.add(key)
                    found.append(Match(pattern, g, binding, covered))
            lists[g] = found
            found_total += len(found)

            if not release:
                if table:
                    tables[g] = table
                continue
            fanouts = sum(1 for h in g.fanouts if h.is_gate)
            if table and fanouts and not (tree_mode and len(g.fanouts) != 1):
                tables[g] = table
                readers[g] = fanouts
            for f in fanins:
                left_to_read = readers.get(f)
                if left_to_read is None:
                    continue
                if left_to_read == 1:
                    del readers[f], tables[f]
                else:
                    readers[f] = left_to_read - 1

        if OBS.enabled:
            OBS.metrics.counter("match.calls").inc(len(gates))
            OBS.metrics.counter("match.found").inc(found_total)
            OBS.metrics.counter("match.table_entries").inc(stored)


def find_matches(
    snode: SubjectNode, patterns: PatternSet, tree_mode: bool = False
) -> List[Match]:
    """Convenience wrapper: all matches rooted at one subject node."""
    return Matcher(patterns, tree_mode).matches_at(snode)
