"""Incremental net-cost bookkeeping for the placement engines.

The annealer and the detailed-placement swap pass both score a move by
the half-perimeter bounding boxes of the nets it touches.  Re-folding a
box from scratch is O(pins-of-net) per net per probe; :class:`NetBoxCache`
keeps one live bounding box per net instead, plus a per-net dirty flag:

* the detailed-placement swap pass delta-updates the boxes of a probed
  swap itself (an O(1) coordinate update for pins moving inside the box
  or outward from a boundary, a re-fold when a pin leaves a boundary
  inward), commits them on accept, and dirty-marks the nets of an undone
  swap, which re-fold on the next read;
* the annealer re-folds every net it scores, since each one holds a
  just-swapped cell; it uses only ``_box``, ``_fold``, ``cell_nets``
  and ``refolds``.

Bit-identity: a bounding box is the min/max over a finite set of floats —
an exact, order-independent reduction — so a box maintained by expansion
and re-folds equals the box a full fold computes, and the HPWL
``(ux - lx) + (uy - ly)`` computed from equal bounds is bitwise equal.
The golden-equivalence and randomized-move tests assert this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point

__all__ = ["NetBoxCache"]

#: A bounding box as ``(lx, ly, ux, uy)``.
Box = Tuple[float, float, float, float]


class NetBoxCache:
    """Per-net live bounding boxes with lazy dirty-flag re-folds.

    Args:
        nets: the hypergraph nets (lists of pin names).
        positions: the *live* movable-cell position dict — the cache reads
            it on every re-fold, so mutate it in place.
        fixed: immovable terminal positions (pads); folded once into a
            static per-net partial box.

    The placement engines own the updates: they read and write ``_box``
    (and the swap pass ``_dirty``) directly and re-fold with ``_fold``;
    the swap pass plans each swap with :meth:`swap_plan`.  Pins present
    in neither dict are ignored, and a net with fewer than two located
    pins has zero HPWL forever — both exactly as the naive fold behaves.
    The constructor builds each foldable net's initial box with ``_fold``.
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        self.positions = positions
        n = len(nets)
        self.cell_nets: Dict[str, Tuple[int, ...]] = {}
        self._movable: List[Tuple[str, ...]] = []
        self._fixed_box: List[Optional[Box]] = []
        self._located: List[int] = []
        self._box: List[Optional[Box]] = [None] * n
        self.refolds = 0
        self._dirty: List[bool] = [False] * n
        self._pair_memo: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        self.fast_updates = 0

        seen: Dict[str, Set[int]] = {}
        for net_id, net in enumerate(nets):
            movable: List[str] = []
            fb: Optional[Box] = None
            located = 0
            for pin in net:
                p = positions.get(pin)
                if p is not None:
                    movable.append(pin)
                    located += 1
                    seen.setdefault(pin, set()).add(net_id)
                    continue
                q = fixed.get(pin)
                if q is None:
                    continue
                located += 1
                if fb is None:
                    fb = (q.x, q.y, q.x, q.y)
                else:
                    fb = (
                        min(fb[0], q.x),
                        min(fb[1], q.y),
                        max(fb[2], q.x),
                        max(fb[3], q.y),
                    )
            if fb is None and len(set(movable)) == 1:
                # Every located pin is the same cell: the box is a point
                # that follows the cell, HPWL is exactly 0.0 forever, and
                # the O(1) boundary updates (which assume some *other* pin
                # holds the opposite boundary) would not apply.  Classify
                # as degenerate so reads return the same 0.0 a fold would.
                located = min(located, 1)
            self._movable.append(tuple(movable))
            self._fixed_box.append(fb)
            self._located.append(located)
            if located >= 2:
                self._box[net_id] = self._fold(net_id)
        self.cell_nets = {
            pin: tuple(sorted(ids)) for pin, ids in seen.items()
        }

    def _fold(self, net_id: int) -> Box:
        """Full bounding box of a net from live positions (exact)."""
        positions = self.positions
        fb = self._fixed_box[net_id]
        movable = self._movable[net_id]
        if fb is None:
            lx = ly = ux = uy = None
        else:
            lx, ly, ux, uy = fb
        for pin in movable:
            p = positions[pin]
            x, y = p.x, p.y
            if lx is None:
                lx = ux = x
                ly = uy = y
                continue
            if x < lx:
                lx = x
            elif x > ux:
                ux = x
            if y < ly:
                ly = y
            elif y > uy:
                uy = y
        return (lx, ly, ux, uy)

    def swap_plan(self, a: str, b: str) -> List[Tuple[int, int]]:
        """``(net_id, membership)`` rows for a two-cell move (memoized).

        Net ids are sorted; membership is a bitmask (1 = net contains
        ``a``, 2 = contains ``b``, 3 = both).  Nets with fewer than two
        located pins are filtered out — their HPWL is exactly ``+0.0``
        forever, so dropping the terms leaves every before/after sum
        bitwise unchanged.
        """
        key = (a, b)
        got = self._pair_memo.get(key)
        if got is None:
            located = self._located
            in_a = set(self.cell_nets.get(a, ()))
            in_b = set(self.cell_nets.get(b, ()))
            got = [
                (i, (1 if i in in_a else 0) | (2 if i in in_b else 0))
                for i in sorted(in_a | in_b)
                if located[i] >= 2
            ]
            self._pair_memo[key] = got
        return got

    def hpwl(self, net_id: int) -> float:
        """Half-perimeter wirelength of one net (re-folds if dirty)."""
        if self._dirty[net_id]:
            self._box[net_id] = self._fold(net_id)
            self._dirty[net_id] = False
            self.refolds += 1
        box = self._box[net_id]
        if box is None:
            return 0.0
        return (box[2] - box[0]) + (box[3] - box[1])
