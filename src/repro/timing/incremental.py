"""Incremental static timing analysis (dirty-node frontier propagation).

:func:`repro.timing.sta.analyze` re-levelizes and re-propagates the whole
netlist after every change; during placement-aware optimisation most
changes are a single gate moving, which perturbs the loads of a handful of
nets and the arrivals of one fanout cone.  :class:`IncrementalTiming`
keeps a live :class:`TimingReport` and, on each :meth:`update`, recomputes
only the dirty frontier:

* a moved gate dirties its own load (its position sits on its output net)
  and the loads of its gate fanins (it sits on each of their output nets);
* a recomputed arrival is propagated to fanouts only when its value
  actually changed (bitwise), so propagation stops at the edge of the
  affected cone;
* required times depend on loads and the deadline, not on arrivals, so
  the backward pass re-runs only for the fanin cone of load-changed gates
  (or fully when the effective deadline changed).

The frontier runs in array form: dirty nodes bucket by logic level, and
each level's gates evaluate as one gathered
:class:`~repro.timing.array_sta.ArraySTA` pin-table fold (dirty loads
batch the same way over the wire-pin table, the backward frontier over
the required-entry table by backward level).  A fanin always sits at a
strictly lower level than its reader, so every value a batch consumes is
final before the batch runs, and the array expressions are the exact
ones of :class:`~repro.timing.array_sta.ArraySTA` — the propagation
decisions (bitwise value-change gating) and the resulting report match a
per-node heap walk exactly (the oracle of the timing tests).  Tiny
buckets fall back to the shared per-node helpers
(:func:`~repro.timing.sta._node_arrival`,
:func:`~repro.timing.sta._node_required`,
:func:`~repro.timing.sta._node_load`), which compute the same bits, so
the report is bit-identical to a fresh ``analyze`` of the current
netlist — :meth:`IncrementalTiming.check_against_full` asserts exactly
that, required times included, and is wired into ``repro.verify``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.geometry import Point
from repro.map.netlist import MappedNetwork, MappedNode
from repro.obs import OBS
from repro.timing.model import WireCapModel
from repro.timing.sta import (
    ArrivalTimes,
    TimingReport,
    _node_arrival,
    _node_load,
    _node_required,
    analyze,
    required_times,
)

__all__ = ["IncrementalTiming"]

#: Level buckets (and load batches) below this size use the per-node
#: helpers: numpy call overhead beats the interpreter only past a few
#: dozen rows, and both paths produce identical bits.
SMALL_FRONTIER_NODES = 24


class IncrementalTiming:
    """A live timing report over a mapped netlist.

    Args:
        mapped: the placed mapped netlist (positions are read live).
        wire_model: as for :func:`~repro.timing.sta.analyze`.
        input_arrivals: PI name -> arrival time (default 0).
        pad_cap: load presented by an output pad.
        wire_cap_per_fanout: fallback lumped wire cap per fanout.
        vec: accepted for callers that still select the array engine by
            name; it is the only engine, so anything but ``True`` raises
            :class:`ValueError`.

    The constructor runs one full pass through the levelized
    :class:`~repro.timing.array_sta.ArraySTA` tables; afterwards
    :meth:`set_position` / :meth:`set_input_arrival` record changes and
    :meth:`update` refreshes :attr:`report` by frontier propagation.
    Positions must change through :meth:`set_position` (or
    :meth:`invalidate` after a direct mutation) so the engine knows what
    is dirty and can mirror the coordinates into its arrays.
    """

    def __init__(
        self,
        mapped: MappedNetwork,
        wire_model: Optional[WireCapModel] = None,
        input_arrivals: Optional[Dict[str, float]] = None,
        pad_cap: float = 0.25,
        wire_cap_per_fanout: float = 0.0,
        vec: bool = True,
    ) -> None:
        if vec is not True:
            raise ValueError(
                "IncrementalTiming has one engine, the array frontier; "
                f"vec must be True, got {vec!r}"
            )
        from repro.timing.array_sta import ArraySTA

        self.mapped = mapped
        self.wire_model = wire_model
        self.input_arrivals = dict(input_arrivals or {})
        self.pad_cap = pad_cap
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self._array = ArraySTA(
            mapped,
            wire_model=wire_model,
            input_arrivals=self.input_arrivals,
            pad_cap=pad_cap,
            wire_cap_per_fanout=wire_cap_per_fanout,
        )
        self.report = self._array.analyze()
        self._order = self._array._order
        self._topo = {node.name: i for i, node in enumerate(self._order)}
        self._node = {node.name: node for node in self._order}
        self._dirty: Set[str] = set()
        self._load_dirty: Set[str] = set()
        #: Gates whose load changed since the required times were cached
        #: (drives the backward frontier).
        self._required_stale: Set[str] = set()
        self._required: Optional[Dict[str, float]] = None
        self._required_deadline: Optional[float] = None
        self.updates = 0
        self.nodes_recomputed = 0
        self._init_frontier()

    # -- array-frontier state ------------------------------------------------

    def _init_frontier(self) -> None:
        """Flatten frontier state next to the :class:`ArraySTA` tables.

        Persistent mirrors (positions, rise/fall/worst arrivals, per-gate
        loads) let a level bucket gather everything it needs with numpy
        indexing; the index lists (kinds, fanout indices, forward and
        backward levels) drive the bucket scheduling without touching
        node objects.
        """
        import numpy as np

        arr = self._array
        order = self._order
        n = len(order)
        idx = self._topo
        self._names = [node.name for node in order]
        # 0 = PI, 1 = constant, 2 = gate, 3 = PO.
        kind = []
        for node in order:
            if node.is_pi:
                kind.append(0)
            elif node.is_constant:
                kind.append(1)
            elif node.is_po:
                kind.append(3)
            else:
                kind.append(2)
        self._kind = kind
        self._fanout_idx = [
            [idx[s.name] for s in node.fanouts] for node in order
        ]
        self._fanin0 = [
            idx[node.fanins[0].name] if node.is_po else -1 for node in order
        ]
        self._po_idx = np.array(
            [idx[po.name] for po in self.mapped.primary_outputs],
            dtype=np.int64,
        )
        # Forward level of *every* node (a PO sits one past its driver);
        # any node's fanins live at strictly lower levels, which is what
        # makes a per-level batch safe to evaluate at once.
        nlevel = [0] * n
        for i, node in enumerate(order):
            if node.fanins:
                nlevel[i] = 1 + max(nlevel[idx[f.name]] for f in node.fanins)
        self._nlevel = nlevel
        blevel = [0] * n
        for i in range(n - 1, -1, -1):
            fouts = order[i].fanouts
            if fouts:
                blevel[i] = 1 + max(blevel[idx[s.name]] for s in fouts)
        self._blevel = blevel
        self._bpos = {int(i): r for r, i in enumerate(arr._bnodes.tolist())}
        # Coordinate mirrors, kept in sync by set_position/invalidate.
        px = np.zeros(n, dtype=np.float64)
        py = np.zeros(n, dtype=np.float64)
        placed = np.zeros(n, dtype=bool)
        for i, node in enumerate(order):
            pos = node.position
            if pos is not None:
                px[i] = pos.x
                py[i] = pos.y
                placed[i] = True
        self._px = px
        self._py = py
        self._placed = placed
        # Arrival and load mirrors seeded from the constructor's full pass.
        arrivals = self.report.arrivals
        rise = np.empty(n, dtype=np.float64)
        fall = np.empty(n, dtype=np.float64)
        worst = np.empty(n, dtype=np.float64)
        for i, node in enumerate(order):
            a = arrivals[node.name]
            rise[i] = a.rise
            fall[i] = a.fall
            worst[i] = a.worst
        self._rise = rise
        self._fall = fall
        self._worst = worst
        loads = self.report.loads
        gloads = np.empty(len(arr._gate_list), dtype=np.float64)
        for j, gi in enumerate(arr._gate_list):
            gloads[j] = loads[order[gi].name]
        self._gloads = gloads
        self._req_arr = None

    def _sync_position(self, name: str) -> None:
        """Refresh one node's coordinate mirror from its live position."""
        i = self._topo[name]
        pos = self._node[name].position
        if pos is None:
            self._placed[i] = False
        else:
            self._px[i] = pos.x
            self._py[i] = pos.y
            self._placed[i] = True

    # -- change recording ----------------------------------------------------

    def _mark(self, node: MappedNode, load_too: bool) -> None:
        self._dirty.add(node.name)
        if load_too and node.is_gate:
            self._load_dirty.add(node.name)
            self._required_stale.add(node.name)

    def set_position(self, name: str, position: Optional[Point]) -> None:
        """Move one node; dirties its own and its fanin-drivers' loads."""
        node = self._node[name]
        node.position = position
        self._sync_position(name)
        self._mark(node, load_too=True)
        for fanin in node.fanins:
            self._mark(fanin, load_too=True)

    def set_input_arrival(self, name: str, arrival: float) -> None:
        """Change a primary input's arrival time."""
        self.input_arrivals[name] = arrival
        self._mark(self._node[name], load_too=False)

    def invalidate(self, name: str) -> None:
        """Force one node (arrival and load) to recompute on next update."""
        self._sync_position(name)
        self._mark(self._node[name], load_too=True)

    # -- forward frontier ----------------------------------------------------

    def _loads_for_rows(self, rows) -> "list":
        """Recompute the loads of the given gate rows (ascending,
        gate-sorted positions), mirroring
        :meth:`~repro.timing.array_sta.ArraySTA._compute_loads` — and so
        :func:`~repro.timing.sta._node_load` — expression for expression.
        """
        import numpy as np

        arr = self._array
        static = arr._static_load
        if self.wire_model is None:
            return (
                static[rows] + self.wire_cap_per_fanout * arr._nfan[rows]
            ).tolist()
        from repro.perf.vec import concat_ranges

        pidx, offs = concat_ranges(arr._woff[rows], arr._woff[rows + 1])
        wid = arr._wpin[pidx]
        pl = self._placed[wid]
        starts = offs[:-1]  # every wire net holds >= 1 pin (its driver)
        counts = np.add.reduceat(pl.astype(np.int64), starts)
        xs = self._px[wid]
        ys = self._py[wid]
        lx = np.minimum.reduceat(np.where(pl, xs, np.inf), starts)
        ux = np.maximum.reduceat(np.where(pl, xs, -np.inf), starts)
        ly = np.minimum.reduceat(np.where(pl, ys, np.inf), starts)
        uy = np.maximum.reduceat(np.where(pl, ys, -np.inf), starts)
        valid = counts >= 2
        lx = np.where(valid, lx, 0.0)
        ux = np.where(valid, ux, 0.0)
        ly = np.where(valid, ly, 0.0)
        uy = np.where(valid, uy, 0.0)
        factor = np.where(
            counts <= 3,
            1.0,
            (np.sqrt(counts.astype(np.float64)) + 1.0) / 2.0,
        )
        model = self.wire_model
        wire = np.where(
            valid,
            model.ch_per_um * ((ux - lx) * factor)
            + model.cv_per_um * ((uy - ly) * factor),
            0.0,
        )
        return (static[rows] + wire).tolist()

    def update(self) -> TimingReport:
        """Propagate pending changes; returns the refreshed live report.

        Level-batched frontier propagation over the ArraySTA tables.
        """
        if not self._dirty:
            return self.report
        import numpy as np

        from repro.perf.vec import concat_ranges, segment_max

        self.updates += 1
        report = self.report
        arrivals = report.arrivals
        loads = report.loads
        arr = self._array
        order = self._order
        names = self._names
        topo = self._topo
        kind = self._kind
        nlevel = self._nlevel
        fanout_idx = self._fanout_idx
        load_dirty = self._load_dirty
        # Dirty loads first: any gate reads only its *own* load, so the
        # whole batch can refresh before any arrival is evaluated.
        if load_dirty:
            gate_pos = arr._gate_pos
            rows = sorted(gate_pos[topo[name]] for name in load_dirty)
            if len(rows) < SMALL_FRONTIER_NODES:
                new_loads = [
                    _node_load(
                        order[arr._gate_list[r]],
                        self.wire_model,
                        self.pad_cap,
                        self.wire_cap_per_fanout,
                    )
                    for r in rows
                ]
            else:
                new_loads = self._loads_for_rows(
                    np.array(rows, dtype=np.int64))
            for r, value in zip(rows, new_loads):
                self._gloads[r] = value
                loads[names[arr._gate_list[r]]] = value
        # Bucket the dirty set by forward level; propagation only ever
        # inserts into strictly higher levels.
        buckets: Dict[int, List[int]] = {}
        queued: Set[int] = set()
        for name in self._dirty:
            i = topo[name]
            if i not in queued:
                queued.add(i)
                buckets.setdefault(nlevel[i], []).append(i)
        recomputed = 0
        while buckets:
            ids = sorted(buckets.pop(min(buckets)))
            recomputed += len(ids)
            results: List = []  # (node index, rise, fall)
            gate_ids: List[int] = []
            for i in ids:
                k = kind[i]
                if k == 2:
                    gate_ids.append(i)
                elif k == 0:
                    t = self.input_arrivals.get(names[i], 0.0)
                    results.append((i, t, t))
                elif k == 1:
                    results.append((i, 0.0, 0.0))
                else:
                    j = self._fanin0[i]
                    results.append(
                        (i, float(self._rise[j]), float(self._fall[j])))
            if gate_ids:
                if len(gate_ids) < SMALL_FRONTIER_NODES:
                    for i in gate_ids:
                        new = _node_arrival(
                            order[i], arrivals, loads[names[i]])
                        results.append((i, new.rise, new.fall))
                else:
                    rows = np.array(
                        [arr._gate_pos[i] for i in gate_ids], dtype=np.int64)
                    pidx, offs = concat_ranges(
                        arr._pin_off[rows], arr._pin_off[rows + 1])
                    t = self._worst[arr._pin_src[pidx]]
                    ld = np.repeat(
                        self._gloads[rows], arr._pin_counts[rows])
                    r = np.maximum(
                        segment_max(
                            (t + arr._pin_rb[pidx])
                            + arr._pin_rr[pidx] * ld, offs),
                        0.0,
                    )
                    f = np.maximum(
                        segment_max(
                            (t + arr._pin_fb[pidx])
                            + arr._pin_fr[pidx] * ld, offs),
                        0.0,
                    )
                    results.extend(zip(gate_ids, r.tolist(), f.tolist()))
            for i, rv, fv in results:
                name = names[i]
                old = arrivals.get(name)
                if old is None or old.rise != rv or old.fall != fv:
                    arrivals[name] = ArrivalTimes(rv, fv)
                    w = rv if rv >= fv else fv
                    order[i].arrival = w
                    self._rise[i] = rv
                    self._fall[i] = fv
                    self._worst[i] = w
                    for j in fanout_idx[i]:
                        if j not in queued:
                            queued.add(j)
                            buckets.setdefault(nlevel[j], []).append(j)
                elif name in load_dirty:
                    order[i].arrival = old.worst
        self._dirty.clear()
        self._load_dirty.clear()
        self.nodes_recomputed += recomputed
        # Same winner as _select_critical's last-wins ">=" scan, read
        # from the worst-arrival mirror: the critical PO is the *last*
        # one whose worst equals the maximum (every later tie re-wins).
        po_idx = self._po_idx
        report.critical_delay = 0.0
        report.critical_po = None
        if len(po_idx):
            w = self._worst[po_idx]
            m = float(w.max())
            if m >= 0.0:
                report.critical_delay = m
                report.critical_po = names[
                    int(po_idx[np.flatnonzero(w == m)[-1]])]
        if OBS.enabled:
            OBS.metrics.counter("perf.incremental.sta_updates").inc()
            OBS.metrics.counter(
                "perf.incremental.sta_nodes").inc(recomputed)
        return report

    # -- backward frontier ---------------------------------------------------

    def required(self, deadline: Optional[float] = None) -> Dict[str, float]:
        """Required times under ``deadline`` (default: critical delay).

        Recomputes the full backward pass when the effective deadline
        changed (a new deadline touches every PO); otherwise refreshes
        only the fanin cones of the gates whose load changed since the
        last call, batched by backward level over the ArraySTA
        required-entry table.
        """
        self.update()
        report = self.report
        effective = (
            deadline if deadline is not None else report.critical_delay
        )
        required = self._required
        if required is None or effective != self._required_deadline:
            import numpy as np

            required = self._array.required_from(report.loads, effective)
            req_arr = np.empty(len(self._order), dtype=np.float64)
            for i, name in enumerate(self._names):
                req_arr[i] = required[name]
            self._req_arr = req_arr
            self._required = required
            self._required_deadline = effective
            self._required_stale.clear()
            return required
        if not self._required_stale:
            return required
        return self._required_frontier(required, effective)

    def _required_frontier(
        self, required: Dict[str, float], effective: float
    ) -> Dict[str, float]:
        """Backward frontier batched by backward level.

        A node's required time reads only its fanouts' — all at strictly
        lower backward levels — so buckets evaluate whole levels as one
        gathered fold over the ArraySTA required-entry rows, with the
        same value-change gating as a per-node walk.  POs never enter:
        seeds and propagation both follow fanin edges.
        """
        import numpy as np

        from repro.perf.vec import concat_ranges, segment_min

        arr = self._array
        order = self._order
        names = self._names
        topo = self._topo
        blevel = self._blevel
        req_arr = self._req_arr
        loads = self.report.loads
        buckets: Dict[int, List[int]] = {}
        queued: Set[int] = set()
        for name in self._required_stale:
            for fanin in self._node[name].fanins:
                j = topo.get(fanin.name)
                if j is not None and j not in queued:
                    queued.add(j)
                    buckets.setdefault(blevel[j], []).append(j)
        self._required_stale.clear()
        la = np.append(self._gloads, 0.0)  # pad slot reads 0.0
        while buckets:
            ids = sorted(buckets.pop(min(buckets)))
            if len(ids) < SMALL_FRONTIER_NODES:
                news = [
                    _node_required(order[i], required, loads, effective)
                    for i in ids
                ]
            else:
                rows = np.array(
                    [self._bpos[i] for i in ids], dtype=np.int64)
                pidx, offs = concat_ranges(
                    arr._ent_off[rows], arr._ent_off[rows + 1])
                ld = la[arr._ent_load[pidx]]
                stage = np.maximum(
                    arr._ent_rb[pidx] + arr._ent_rr[pidx] * ld,
                    arr._ent_fb[pidx] + arr._ent_fr[pidx] * ld,
                )
                cand = req_arr[arr._ent_sink[pidx]] - stage
                mn = segment_min(cand, offs)
                counts = offs[1:] - offs[:-1]
                news = np.where(counts > 0, mn, effective).tolist()
            for i, new in zip(ids, news):
                name = names[i]
                if required.get(name) != new:
                    required[name] = new
                    req_arr[i] = new
                    for fanin in order[i].fanins:
                        j = topo.get(fanin.name)
                        if j is not None and j not in queued:
                            queued.add(j)
                            buckets.setdefault(blevel[j], []).append(j)
        return required

    # -- cross-check ---------------------------------------------------------

    def check_against_full(
        self, deadline: Optional[float] = None
    ) -> List[str]:
        """Compare the live report against a fresh full pass (bitwise).

        Arrivals, loads, the critical output and delay are compared with
        :func:`~repro.timing.sta.analyze`, and :meth:`required` at
        ``deadline`` (default: the critical delay) with
        :func:`~repro.timing.sta.required_times` of the fresh report at
        the same deadline.  Returns human-readable mismatch descriptions
        (empty = exact).  Used by ``repro.verify`` as the incremental
        engine's audit.
        """
        self.update()
        fresh = analyze(
            self.mapped,
            wire_model=self.wire_model,
            input_arrivals=self.input_arrivals,
            pad_cap=self.pad_cap,
            wire_cap_per_fanout=self.wire_cap_per_fanout,
        )
        problems: List[str] = []
        live = self.report
        for name, want in fresh.arrivals.items():
            got = live.arrivals.get(name)
            if got is None or got.rise != want.rise or got.fall != want.fall:
                problems.append(
                    f"arrival mismatch at {name}: live={got} full={want}"
                )
        for name in live.arrivals:
            if name not in fresh.arrivals:
                problems.append(f"stale arrival entry {name}")
        for name, want in fresh.loads.items():
            got = live.loads.get(name)
            if got != want:
                problems.append(
                    f"load mismatch at {name}: live={got} full={want}"
                )
        for name in live.loads:
            if name not in fresh.loads:
                problems.append(f"stale load entry {name}")
        if live.critical_po != fresh.critical_po:
            problems.append(
                f"critical PO mismatch: live={live.critical_po} "
                f"full={fresh.critical_po}"
            )
        if live.critical_delay != fresh.critical_delay:
            problems.append(
                f"critical delay mismatch: live={live.critical_delay!r} "
                f"full={fresh.critical_delay!r}"
            )
        got_req = self.required(deadline)
        want_req = required_times(self.mapped, fresh, deadline)
        if got_req != want_req:
            bad = sorted(
                name for name in set(want_req) | set(got_req)
                if got_req.get(name) != want_req.get(name)
            )
            problems.append(
                f"required-time mismatch at {len(bad)} nodes "
                f"(e.g. {bad[0]}: live={got_req.get(bad[0])!r} "
                f"full={want_req.get(bad[0])!r})"
            )
        return problems
