"""Incremental net-cost bookkeeping for the placement engines.

The annealer and the detailed-placement swap pass both score a move by
the half-perimeter bounding boxes of the nets it touches.  Re-folding a
box from scratch is O(pins-of-net) per net per probe; these caches keep
one live bounding box per net instead:

* :class:`NetBoxCache` (detailed placement) holds the boxes and a
  per-net dirty flag.  The swap pass delta-updates the boxes of a probed
  swap itself (an O(1) coordinate update for pins moving inside the box
  or outward from a boundary, a re-fold when a pin leaves a boundary
  inward), commits them on accept, and dirty-marks the nets of an undone
  swap, which re-fold on the next read;
* :class:`StampedNetBoxCache` (annealer) re-folds a net on read exactly
  when one of its cells moved since the last fold.

Bit-identity: a bounding box is the min/max over a finite set of floats —
an exact, order-independent reduction — so a box maintained by expansion
and re-folds equals the box a full fold computes, and the HPWL
``(ux - lx) + (uy - ly)`` computed from equal bounds is bitwise equal.
The golden-equivalence and randomized-move tests assert this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point

__all__ = ["NetBoxCache", "StampedNetBoxCache"]

#: A bounding box as ``(lx, ly, ux, uy)``.
Box = Tuple[float, float, float, float]


class _BoxCacheBase:
    """Shared net classification + exact folding for the box caches.

    The initial per-net boxes bulk-build through the struct-of-arrays
    kernels (:func:`repro.perf.vec.fold_box_arrays`); min/max folds are
    exact, so every built box equals the per-net :meth:`_fold` bitwise
    (the ``invariant.perf.vec`` audit checks exactly that).
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

        fold_ids: List[int] = []
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
                fold_ids.append(net_id)
        if fold_ids:
            self._bulk_fold(fold_ids)
        self.cell_nets = {
            pin: tuple(sorted(ids)) for pin, ids in seen.items()
        }

    def _bulk_fold(self, fold_ids: List[int]) -> None:
        """Initial boxes for all foldable nets in one array reduction."""
        from repro.obs import OBS
        from repro.perf.vec import fold_box_arrays

        movable = self._movable
        fixed_box = self._fixed_box
        lx, ly, ux, uy = fold_box_arrays(
            [movable[i] for i in fold_ids],
            [fixed_box[i] for i in fold_ids],
            self.positions,
        )
        lxl = lx.tolist()
        lyl = ly.tolist()
        uxl = ux.tolist()
        uyl = uy.tolist()
        box = self._box
        for j, net_id in enumerate(fold_ids):
            box[net_id] = (lxl[j], lyl[j], uxl[j], uyl[j])
        if OBS.enabled:
            OBS.metrics.counter("perf.vec.box_folds").inc(len(fold_ids))

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


class NetBoxCache(_BoxCacheBase):
    """Per-net live bounding boxes with lazy dirty-flag re-folds.

    Args:
        nets: the hypergraph nets (lists of pin names).
        positions: the *live* movable-cell position dict — the cache reads
            it on every re-fold, so mutate it in place.
        fixed: immovable terminal positions (pads); folded once into a
            static per-net partial box.

    The detailed-placement swap pass owns the updates: it reads and
    writes ``_box`` and ``_dirty`` directly, plans each swap with
    :meth:`swap_plan` and re-folds with ``_fold``.  Pins present in
    neither dict are ignored, and a net with fewer than two located pins
    has zero HPWL forever — both exactly as the naive fold behaves.
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        super().__init__(nets, positions, fixed)
        self._dirty: List[bool] = [False] * len(nets)
        self._pair_memo: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        self.fast_updates = 0

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


class StampedNetBoxCache(_BoxCacheBase):
    """Per-net boxes validated by per-cell move stamps (read-side lazy).

    Built for the annealer, where a single swap shifts whole row suffixes
    as a side effect: eagerly touching every net of every shifted cell
    costs more than the folds it saves.  Here a move only bumps an integer
    stamp per *actually moved* cell (:meth:`touch`), and a read re-folds a
    net exactly when some member cell moved after the box was last folded.
    Boxes are therefore always live-accurate on read, rejection needs no
    rollback (the undoing swap just bumps stamps again), and every value
    returned equals the naive full fold bitwise.

    Call :meth:`tick` before each batch of touches: reads between two
    batches validate against the batch's clock, so a later batch must
    carry a newer one.
    """

    def __init__(
        self,
        nets: Sequence[Sequence[str]],
        positions: Dict[str, Point],
        fixed: Dict[str, Point],
    ) -> None:
        super().__init__(nets, positions, fixed)
        self.clock = 0
        self.cell_stamp: Dict[str, int] = {
            pin: 0 for pin in self.cell_nets
        }
        self._net_stamp: List[int] = [0] * len(nets)
        self.hits = 0

    def tick(self) -> None:
        """Open a new move batch (subsequent touches outdate prior reads)."""
        self.clock += 1

    def touch(self, cell: str) -> None:
        """Record that a cell moved in the current batch."""
        self.cell_stamp[cell] = self.clock

    def hpwl(self, net_id: int) -> float:
        """HPWL of one net, re-folded iff a member moved since last fold."""
        box = self._box[net_id]
        if box is None:
            return 0.0
        stamp = self._net_stamp[net_id]
        stamps = self.cell_stamp
        for pin in self._movable[net_id]:
            if stamps[pin] > stamp:
                box = self._box[net_id] = self._fold(net_id)
                self._net_stamp[net_id] = self.clock
                self.refolds += 1
                break
        else:
            self.hits += 1
        return (box[2] - box[0]) + (box[3] - box[1])

    def refresh_hpwl(self, net_id: int) -> float:
        """HPWL with an unconditional re-fold.

        For callers that already know a member cell moved (the annealer's
        scored nets always contain a swapped cell), skipping the stamp
        scan.  Identical value to :meth:`hpwl`.
        """
        box = self._box[net_id]
        if box is None:
            return 0.0
        box = self._box[net_id] = self._fold(net_id)
        self._net_stamp[net_id] = self.clock
        self.refolds += 1
        return (box[2] - box[0]) + (box[3] - box[1])
