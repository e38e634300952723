"""Fiduccia–Mattheyses min-cut bipartitioning.

Used to refine the coordinate-median splits inside the GORDIAN-style global
placer (the paper's placement engine "uses quadratic optimization and
bi-partitioning techniques", Section 3.1).  Classic single-cell-move FM
with an area-balance constraint and best-prefix rollback, run for a
bounded number of passes.

The kernel works on integer ids.  Cells are ``0..k-1`` and a cell's id is
also its tie-break rank.  A net is a list of cell ids; a cell listed ``m``
times has ``m`` pins on the net, as a mapped gate with two inputs from one
driver does.  Pins outside the cell set are fixed terminals: the caller
passes only how many of them sit on each side of each net.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple

__all__ = ["fm_refine"]


def fm_refine(
    side: List[int],
    sizes: Sequence[float],
    nets: Sequence[Sequence[int]],
    count0: List[int],
    count1: List[int],
    balance_tolerance: float = 0.1,
    max_passes: int = 4,
) -> Tuple[int, int]:
    """Improve a bipartition's cut without violating area balance.

    Args:
        side: starting side (0/1) of every cell; updated in place to the
            refined bipartition.
        sizes: cell areas, indexed by cell id.
        nets: each net's cell pins (a cell may repeat).
        count0, count1: per net, the fixed-terminal pins on side 0 and on
            side 1.  The kernel adds the cells' pins and keeps both lists
            current, so they hold every pin's side count on return.
        balance_tolerance: allowed deviation of either side's area from
            half the total, as a fraction of the total.
        max_passes: FM passes (each pass moves every cell at most once).

    Returns:
        ``(moves, gain_updates)``: tentative moves made over all passes,
        and the per-pin gain deltas applied to free cells.
    """
    k = len(side)
    total_area = sum(sizes)
    if total_area <= 0:
        return 0, 0
    # Classic FM feasibility: a side may hold half the area plus the
    # tolerance, but never less than half plus one largest cell (otherwise
    # no single move is ever legal on small instances).
    max_side_area = max(
        total_area * (0.5 + balance_tolerance),
        total_area / 2.0 + max(sizes),
    )
    fixed = (list(count0), list(count1))
    counts = (count0, count1)
    # Cell -> [(net, pins of the cell on it)], nets ascending.
    incidence: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for net, pins in enumerate(nets):
        for c in pins:
            counts[side[c]][net] += 1
            cell_nets = incidence[c]
            if cell_nets and cell_nets[-1][0] == net:
                cell_nets[-1] = (net, cell_nets[-1][1] + 1)
            else:
                cell_nets.append((net, 1))

    moves = updates = 0
    for _ in range(max_passes):
        improved, pass_moves, pass_updates = _fm_pass(
            side, sizes, nets, incidence, counts, fixed, max_side_area)
        moves += pass_moves
        updates += pass_updates
        if not improved:
            break
    return moves, updates


def _fm_pass(side, sizes, nets, incidence, counts, fixed, max_side_area):
    """One FM pass; mutates ``side`` and ``counts``.

    ``fixed`` holds each net's fixed-terminal pins per side.

    Returns ``(improved, moves, gain_updates)``.

    A cell's gain is the nets a move would uncut minus the nets it would
    cut, each counted once per pin of the cell: with ``same`` and
    ``other`` the net's pins on the cell's side and the far side, a net
    adds 1 when ``same == 1`` and subtracts the cell's pin count when
    ``other == 0``.  So a gain reads each net's counts only through
    ``same == 1`` and ``other == 0``.  Moving a cell changes the counts
    of its own nets only, and a free cell's gain moves by the exact
    difference of those two tests before and after, once per pin; nets
    where neither test changes for either side are skipped.

    Selection pops a lazy min-heap of int keys ``-gain * k + cell``,
    which order like ``(-gain, cell)``: highest gain, lowest id on ties.
    Each gain change pushes the new key; ``key[c]`` is the cell's live
    key, ``None`` once it is locked, so any other popped key is stale.
    The winner is therefore the free, feasible cell of least
    ``(-gain, cell)``, whatever the heap's history.  A cell whose move
    would break balance is set aside and pushed back once the step's
    winner is found.

    The pass stops as soon as no later prefix can beat the best one.
    Over all later moves together a net adds at most 1 to the gains if it
    is cut now and nothing if it is not: it adds 1 only on a move that
    uncuts it, and before it can be uncut again a move must cut it,
    costing at least 1.  A net with held pins (fixed terminals, or cells
    already moved this pass) on both sides stays cut and adds nothing.
    So the moves to come can add at most ``live``, the cut nets not held
    on both sides; once ``gain_total + live <= best_gain`` the rest of
    the pass would only be rolled back.
    """
    k = len(side)
    side_area = [0.0, 0.0]
    for c in range(k):
        side_area[side[c]] += sizes[c]

    gain = [0] * k
    for c in range(k):
        same = counts[side[c]]
        other = counts[1 - side[c]]
        g = 0
        for net, pins in incidence[c]:
            if same[net] == 1:
                g += 1  # moving removes this net from the cut
            if other[net] == 0:
                g -= pins  # moving puts this net into the cut
        gain[c] = g
    key: List[Optional[int]] = [c - k * g for c, g in enumerate(gain)]
    heap = list(key)
    heapify(heap)

    held = (list(fixed[0]), list(fixed[1]))
    live = 0
    for net, (a, b) in enumerate(zip(*counts)):
        if a and b and not (fixed[0][net] and fixed[1][net]):
            live += 1

    moves: List[int] = []
    gain_total = 0
    best_prefix = 0
    best_gain = 0
    updates = 0
    for _step in range(k):
        if gain_total + live <= best_gain:
            break
        deferred = None
        while heap:
            entry = heappop(heap)
            cell = entry % k
            if key[cell] != entry:
                continue  # stale entry or locked cell
            if side_area[1 - side[cell]] + sizes[cell] > max_side_area:
                if deferred is None:
                    deferred = [entry]
                else:
                    deferred.append(entry)
                continue  # infeasible now; may become movable later
            break
        else:
            cell = -1
        if deferred is not None:
            for entry in deferred:
                heappush(heap, entry)
        if cell < 0:
            break
        # Apply the tentative move.
        s = side[cell]
        t = 1 - s
        src = counts[s]
        dst = counts[t]
        held_src = held[s]
        held_dst = held[t]
        size = sizes[cell]
        side_area[s] -= size
        side_area[t] += size
        side[cell] = t
        key[cell] = None
        moves.append(cell)
        gain_total += gain[cell]
        if gain_total > best_gain:
            best_gain = gain_total
            best_prefix = len(moves)
        # Shift the gains of free cells on the nets whose tests changed.
        for net, pins in incidence[cell]:
            a = src[net]
            b = dst[net]
            a2 = a - pins
            b2 = b + pins
            src[net] = a2
            dst[net] = b2
            # Live before: cut (a > 0) and not held on both sides.  After,
            # the cell is held on t: live iff s keeps pins, none held.
            live += ((a2 > 0 and not held_src[net])
                     - (b > 0 and not (held_src[net] and held_dst[net])))
            held_dst[net] += pins
            # Cells left on side s see (same, other) go from (a, b) to
            # (a2, b2); cells on the far side from (b, a) to (b2, a2).
            # b2 > 0 and a > 0, so two of the eight tests are constant.
            d_same = (a2 == 1) - (a == 1) + (b == 0)
            d_far = (b2 == 1) - (b == 1) - (a2 == 0)
            if d_same or d_far:
                for c in nets[net]:
                    if key[c] is None:
                        continue
                    d = d_same if side[c] == s else d_far
                    if d:
                        g = gain[c] + d
                        gain[c] = g
                        entry = c - k * g
                        key[c] = entry
                        heappush(heap, entry)
                        updates += 1

    # Roll back past the best prefix.
    for cell in moves[best_prefix:]:
        s = side[cell]
        src = counts[s]
        dst = counts[1 - s]
        for net, pins in incidence[cell]:
            src[net] -= pins
            dst[net] += pins
        side[cell] = 1 - s
    return best_gain > 0, len(moves), updates
