"""Struct-of-arrays numpy kernels for the placement/STA hot paths.

Naive placement and timing code walks Python objects per net and per
node; on netlists of 1k–100k gates those loops become the wall.  This
module holds the shared vectorized kernels, the only production path of
each layout kernel:

* :class:`PinTable` — a flat pin table over a placement hypergraph
  (``net -> slot indices`` into one coordinate array pair) answering
  per-net bounding boxes and half-perimeter wirelengths as index-array
  reductions (``np.minimum/maximum.reduceat``);
* :func:`fold_box_arrays` — the bulk net-box build behind
  :class:`repro.perf.incremental.NetBoxCache` construction;
* :func:`assemble_quadratic` — the COO assembly of
  :class:`repro.place.quadratic.QuadraticSystem` as vectorized
  index/value streams.

Exactness policy (see ``docs/SCALING.md``): min/max reductions over
floats are order-independent and therefore *bitwise* equal to the naive
folds; float *sums* are only reproduced bitwise where the kernel
accumulates in the naive operation order (:func:`ordered_sum`,
:func:`segment_sum_ordered`, and the ``np.add.at`` streams of
:func:`assemble_quadratic`, which apply contributions strictly in naive
edge order).  The naive twins are test oracles under ``tests/`` (and
flag-free references such as
:func:`repro.route.wirelength.netlist_hpwl_naive`); the tests and the
``invariant.perf.vec`` audit compare against them bitwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ordered_sum",
    "segment_min",
    "segment_max",
    "segment_sum_ordered",
    "PinTable",
    "fold_box_arrays",
    "assemble_quadratic",
    "kernel_backend_info",
]


def ordered_sum(values) -> float:
    """Left-to-right float sum, bitwise-equal to a naive ``+=`` loop."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    total = 0.0
    for v in values:
        total += v
    return total


def _segment_reduce(ufunc, values: np.ndarray, offsets: np.ndarray,
                    empty: float) -> np.ndarray:
    """Per-segment ``ufunc`` reduction; empty segments yield ``empty``.

    ``offsets`` has one more entry than there are segments and is
    monotone with ``offsets[-1] == len(values)``.  A sentinel identity
    element guards trailing empty segments (``reduceat`` would index
    past the end otherwise); interior empty segments are masked after
    the fact because ``reduceat`` returns a neighbour's element there.
    """
    counts = np.diff(offsets)
    if len(counts) == 0:
        return np.empty(0, dtype=np.float64)
    padded = np.append(np.asarray(values, dtype=np.float64), empty)
    out = ufunc.reduceat(padded, offsets[:-1])
    out[counts == 0] = empty
    return out


def segment_min(values, offsets, empty: float = np.inf) -> np.ndarray:
    """Per-segment minimum (exact: min is order-independent)."""
    return _segment_reduce(np.minimum, values, offsets, empty)


def segment_max(values, offsets, empty: float = -np.inf) -> np.ndarray:
    """Per-segment maximum (exact: max is order-independent)."""
    return _segment_reduce(np.maximum, values, offsets, empty)


def segment_sum_ordered(values, offsets) -> np.ndarray:
    """Per-segment sums accumulated strictly left to right.

    ``np.add.reduceat`` uses unrolled/pairwise accumulation whose
    rounding differs from a naive sequential loop; this kernel groups
    segments by length and adds one column at a time, so every segment
    sums in exactly the order the naive engines do (bitwise-equal
    results).  Empty segments sum to ``0.0``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(len(counts), dtype=np.float64)
    if len(counts) == 0:
        return out
    starts = offsets[:-1]
    for length in np.unique(counts):
        if length == 0:
            continue
        sel = np.nonzero(counts == length)[0]
        idx = starts[sel][:, None] + np.arange(length)
        mat = values[idx]
        acc = mat[:, 0].copy()
        for j in range(1, int(length)):
            acc += mat[:, j]
        out[sel] = acc
    return out


class PinTable:
    """Flat struct-of-arrays pin table of a placement hypergraph.

    A one-shot snapshot: movable cells take the first coordinate slots,
    in position-dict order, and fixed terminals follow in first-use
    order; build a new table after cells move.  Pins present in neither
    dict are dropped and nets with fewer than two located pins report
    zero HPWL — exactly the naive fold semantics of ``repro.place`` and
    :class:`repro.perf.incremental.NetBoxCache`.
    """

    def __init__(self, nets: Sequence[Sequence[str]], positions, fixed) -> None:
        slot: Dict[str, int] = {}
        xs: List[float] = []
        ys: List[float] = []
        for name, p in positions.items():
            slot[name] = len(xs)
            xs.append(p.x)
            ys.append(p.y)
        pin_slots: List[int] = []
        offsets: List[int] = [0]
        for net in nets:
            for pin in net:
                s = slot.get(pin)
                if s is None:
                    p = fixed.get(pin)
                    if p is None:
                        continue
                    s = slot[pin] = len(xs)
                    xs.append(p.x)
                    ys.append(p.y)
                pin_slots.append(s)
            offsets.append(len(pin_slots))
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.pin_slots = np.asarray(pin_slots, dtype=np.int64)
        self.counts = np.diff(self.offsets)
        #: Nets with >= 2 located pins (the only ones with nonzero HPWL).
        self.valid = self.counts >= 2
        self.num_nets = len(self.counts)
        self.x = np.asarray(xs, dtype=np.float64)
        self.y = np.asarray(ys, dtype=np.float64)

    def boxes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-net bounding boxes ``(lx, ly, ux, uy)``.

        Entries for nets with no located pins hold infinities; consult
        :attr:`valid` (or use :meth:`hpwl`, which masks them).
        """
        px = self.x[self.pin_slots]
        py = self.y[self.pin_slots]
        return (
            segment_min(px, self.offsets),
            segment_min(py, self.offsets),
            segment_max(px, self.offsets),
            segment_max(py, self.offsets),
        )

    def hpwl(self) -> np.ndarray:
        """Per-net half-perimeter wirelengths (0.0 below two located pins)."""
        lx, ly, ux, uy = self.boxes()
        valid = self.valid
        lx = np.where(valid, lx, 0.0)
        ly = np.where(valid, ly, 0.0)
        ux = np.where(valid, ux, 0.0)
        uy = np.where(valid, uy, 0.0)
        return (ux - lx) + (uy - ly)

    def total_hpwl(self) -> float:
        """Sum of all net HPWLs, accumulated in naive net order (bitwise)."""
        return ordered_sum(self.hpwl())


def fold_box_arrays(
    movable_nets: Sequence[Sequence[str]],
    fixed_boxes: Sequence[Optional[Tuple[float, float, float, float]]],
    positions,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bulk-fold per-net boxes for the incremental box cache.

    ``movable_nets`` holds each net's movable member cells and
    ``fixed_boxes`` the per-net static partial box over its fixed pins
    (``None`` when a net has no fixed pins), exactly the classification
    :class:`repro.perf.incremental.NetBoxCache` produces.  Returns
    ``(lx, ly, ux, uy)`` arrays; entries for nets with neither movable
    members nor a fixed box are infinities and must be masked by the
    caller.  Min/max folds are exact, so every returned bound is
    bitwise-equal to the naive per-net fold.
    """
    slot: Dict[str, int] = {}
    coords_x: List[float] = []
    coords_y: List[float] = []
    flat: List[int] = []
    offsets: List[int] = [0]
    for net in movable_nets:
        for pin in net:
            s = slot.get(pin)
            if s is None:
                p = positions[pin]
                s = slot[pin] = len(slot)
                coords_x.append(p.x)
                coords_y.append(p.y)
            flat.append(s)
        offsets.append(len(flat))
    off = np.asarray(offsets, dtype=np.int64)
    idx = np.asarray(flat, dtype=np.int64)
    xs = np.asarray(coords_x, dtype=np.float64)
    ys = np.asarray(coords_y, dtype=np.float64)
    px = xs[idx]
    py = ys[idx]
    lx = segment_min(px, off)
    ly = segment_min(py, off)
    ux = segment_max(px, off)
    uy = segment_max(py, off)
    m = len(movable_nets)
    slx = np.full(m, np.inf)
    sly = np.full(m, np.inf)
    sux = np.full(m, -np.inf)
    suy = np.full(m, -np.inf)
    for i, fb in enumerate(fixed_boxes):
        if fb is not None:
            slx[i], sly[i], sux[i], suy[i] = fb
    return (
        np.minimum(lx, slx),
        np.minimum(ly, sly),
        np.maximum(ux, sux),
        np.maximum(uy, suy),
    )


#: Cached pair-index templates for the quadratic edge expansion, keyed by
#: (kind, pin count): kind 1 is star-shaped (driver to each sink), kind 2
#: the full i<j clique in naive lexicographic order.
_PAIR_TEMPLATES: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _pair_template(kind: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    got = _PAIR_TEMPLATES.get((kind, k))
    if got is None:
        if kind == 1:
            ti = np.zeros(k - 1, dtype=np.int64)
            tj = np.arange(1, k, dtype=np.int64)
        else:
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            ti = np.asarray([p[0] for p in pairs], dtype=np.int64)
            tj = np.asarray([p[1] for p in pairs], dtype=np.int64)
        got = _PAIR_TEMPLATES[(kind, k)] = (ti, tj)
    return got


def assemble_quadratic(
    nets: Sequence[Sequence[str]],
    index: Dict[str, int],
    fixed,
    n: int,
    center,
    weight_model: str,
    star_limit: int,
    anchor_epsilon: float,
):
    """Vectorized COO assembly of the quadratic placement system.

    Mirrors a naive per-edge loop over
    :func:`repro.place.quadratic.clique_edges` bitwise (the test oracle
    of ``tests/perf/test_vec_kernels.py``): edges are generated per net
    in the exact naive order (clique pairs
    lexicographic, wide/star nets driver-to-sink), and the diagonal /
    right-hand-side contributions are applied with ``np.add.at`` —
    an element-at-a-time in-order accumulation — on top of the same
    ``anchor_epsilon`` base, so every float lands via the same sequence
    of IEEE additions as the naive build.

    Returns ``(diag, bx, by, rows, cols, vals)`` numpy arrays; the
    off-diagonal streams (``rows``/``cols``/``vals``) list entries in
    naive extension order so the later CSR duplicate-summation is
    bitwise-reproducible too.
    """
    star_model = weight_model == "star"
    fixed_slot: Dict[str, int] = {}
    fxs: List[float] = []
    fys: List[float] = []
    flat: List[int] = []
    offsets: List[int] = [0]
    for net in nets:
        for pin in net:
            s = index.get(pin)
            if s is None:
                fs = fixed_slot.get(pin)
                if fs is None:
                    if len(net) < 2:
                        # Naive never resolves pins of sub-2-pin nets
                        # (clique_edges returns [] first); skip them so a
                        # dangling name there cannot raise here either.
                        continue
                    p = fixed[pin]
                    fs = fixed_slot[pin] = len(fixed_slot)
                    fxs.append(p.x)
                    fys.append(p.y)
                flat.append(n + fs)
            else:
                flat.append(s)
        offsets.append(len(flat))
    flat_arr = np.asarray(flat, dtype=np.int64)
    off_arr = np.asarray(offsets, dtype=np.int64)
    k_arr = np.diff(off_arr)

    if star_model:
        kind = np.where(k_arr >= 2, 1, 0)
    else:
        kind = np.where(k_arr < 2, 0, np.where(k_arr > star_limit, 1, 2))
    with np.errstate(divide="ignore"):
        w_net = np.where(
            k_arr > 0,
            1.0 if star_model else 2.0 / np.maximum(k_arr, 1),
            0.0,
        )
    ecount = np.where(
        kind == 1, k_arr - 1,
        np.where(kind == 2, k_arr * (k_arr - 1) // 2, 0),
    )
    eoff = np.concatenate([[0], np.cumsum(ecount)])
    num_edges = int(eoff[-1])

    a = np.empty(num_edges, dtype=np.int64)
    b = np.empty(num_edges, dtype=np.int64)
    wv = np.empty(num_edges, dtype=np.float64)
    for k, kd in {(int(kk), int(kk_kind))
                  for kk, kk_kind in zip(k_arr, kind) if kk_kind > 0}:
        ids = np.nonzero((k_arr == k) & (kind == kd))[0]
        mat = flat_arr[off_arr[ids][:, None] + np.arange(k)]
        ti, tj = _pair_template(kd, k)
        pos = (eoff[ids][:, None] + np.arange(len(ti))).ravel()
        a[pos] = mat[:, ti].ravel()
        b[pos] = mat[:, tj].ravel()
        wv[pos] = np.repeat(w_net[ids], len(ti))

    am = a < n
    bm = b < n
    both = am & bm
    single = am ^ bm

    diag = np.full(n + 1, anchor_epsilon)
    bx = np.full(n + 1, anchor_epsilon * center.x)
    by = np.full(n + 1, anchor_epsilon * center.y)
    if num_edges:
        mov_single = np.where(am, a, b)
        d1 = np.where(both | single, np.where(both, a, mov_single), n)
        d2 = np.where(both, b, n)
        np.add.at(diag, np.stack((d1, d2), axis=1).ravel(),
                  np.repeat(wv, 2))
        if fixed_slot:
            fx = np.asarray(fxs, dtype=np.float64)
            fy = np.asarray(fys, dtype=np.float64)
            fsel = np.where(single, np.where(am, b, a) - n, 0)
            bidx = np.where(single, mov_single, n)
            np.add.at(bx, bidx, np.where(single, wv * fx[fsel], 0.0))
            np.add.at(by, bidx, np.where(single, wv * fy[fsel], 0.0))
        rows = np.stack((a, b), axis=1)[both].ravel()
        cols = np.stack((b, a), axis=1)[both].ravel()
        vals = np.repeat(-wv[both], 2)
    else:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0, dtype=np.float64)
    return diag[:n], bx[:n], by[:n], rows, cols, vals


def kernel_backend_info() -> Dict[str, object]:
    """Machine-readable kernel-backend metadata for benchmark runs.

    Records which array libraries (and versions) the struct-of-arrays
    kernels ran on; ``perfbench`` stores the dict in each run's
    environment record, so two runs state the backends they compare.
    """
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # The placement, STA and routing kernels no longer have a naive
        # switch, and the batched subset fold that read a small-batch
        # threshold is gone, so these are constants.  The keys stay
        # because recorded benchmark environments carry them and runs
        # whose records differ do not compare.
        "vec_place_default": True,
        "vec_sta_default": True,
        "vec_route_default": True,
        "small_batch_pins": 48,
    }
