"""The struct-of-arrays quadratic-placement assembly.

:func:`assemble_quadratic` builds the COO system of
:class:`repro.place.quadratic.QuadraticSystem` as vectorized
index/value streams instead of a per-edge Python loop.  It is the one
layout kernel whose array form beats the per-net Python fold; STA,
net boxes and routed lengths stay per node and per net
(``docs/SCALING.md`` has the measurements).

Exactness policy: the ``np.add.at`` streams apply every diagonal and
right-hand-side contribution strictly in naive edge order, so each float
lands via the same sequence of IEEE additions as the naive per-edge
build.  ``tests/perf/test_vec_kernels.py`` holds the per-edge assembly
as the oracle and compares with ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "assemble_quadratic",
    "kernel_backend_info",
]


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

    Records which array libraries (and versions) the array kernels and
    the placement solves ran on; ``perfbench`` stores the dict in each run's
    environment record, so two runs state the backends they compare.
    """
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # Constants: the naive-kernel switches are gone, and so are the
        # array STA, the pin-table wirelength folds and the batched
        # subset fold that read a small-batch threshold.  The keys stay
        # because recorded benchmark environments carry them and runs
        # whose records differ do not compare.
        "vec_place_default": True,
        "vec_sta_default": True,
        "vec_route_default": True,
        "small_batch_pins": 48,
    }
