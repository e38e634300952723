"""Levelized struct-of-arrays static timing analysis.

:func:`repro.timing.sta.analyze` recurses per node over Python objects;
on netlists of 1k gates and up the interpreter loop is the wall.
:class:`ArraySTA` flattens the mapped netlist once into numpy
tables — per-gate pin timing rows, static sink-capacitance streams,
wire-net pin id lists and backward required-time entries — and then
answers full forward (:meth:`analyze`) and backward
(:meth:`required_from`) sweeps as a handful of array operations per
logic level.

Exactness (see ``docs/SCALING.md``): every array expression mirrors the
naive engine's operation order — static sink caps sum strictly left to
right via :func:`repro.perf.vec.segment_sum_ordered` with the wire term
added last, arrival candidates evaluate as ``(t + block) + res * load``,
and the per-node max/min folds are order-independent — so the resulting
:class:`~repro.timing.sta.TimingReport` and required-time maps are
bitwise-equal to :func:`~repro.timing.sta.analyze` and
:func:`~repro.timing.sta.required_times`.  Every full pass in
production runs here: the flow back end, ``circuit_report``, fanout
optimization, and :class:`~repro.timing.incremental.IncrementalTiming`'s
construction and deadline changes (its dirty frontiers walk node by
node).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.map.netlist import MappedNetwork
from repro.obs import OBS
from repro.perf.vec import segment_max, segment_min, segment_sum_ordered
from repro.timing.model import WireCapModel
from repro.timing.sta import ArrivalTimes, TimingReport, _select_critical

__all__ = ["ArraySTA", "analyze_array"]


def _group_slices(keys: List[int]) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` runs of equal values in a sorted list."""
    slices: List[Tuple[int, int]] = []
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            slices.append((start, i))
            start = i
    return slices


class ArraySTA:
    """Array-form STA over a fixed-topology mapped netlist.

    The constructor flattens topology-dependent state (levels, pin
    timing rows, static capacitance streams, backward entries) once;
    :meth:`analyze` re-reads only the things that legitimately change
    between calls — node positions and primary-input arrivals.  Gate
    moves therefore need no rebuild; netlist surgery does.

    Args:
        mapped: the mapped netlist (positions are read live per call).
        wire_model: as for :func:`~repro.timing.sta.analyze`.
        input_arrivals: PI name -> arrival time, read live per call.
        pad_cap: load presented by an output pad.
        wire_cap_per_fanout: fallback lumped wire cap per fanout.
    """

    def __init__(
        self,
        mapped: MappedNetwork,
        wire_model: Optional[WireCapModel] = None,
        input_arrivals: Optional[Dict[str, float]] = None,
        pad_cap: float = 0.25,
        wire_cap_per_fanout: float = 0.0,
    ) -> None:
        self.mapped = mapped
        self.wire_model = wire_model
        self.input_arrivals = input_arrivals if input_arrivals is not None else {}
        self.pad_cap = pad_cap
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self._build()

    # -- one-time flattening ----------------------------------------------

    def _build(self) -> None:
        order = self.mapped.topological_order()
        self._order = order
        n = len(order)
        idx = {node.name: i for i, node in enumerate(order)}

        # Forward logic levels: a gate sits one past its deepest fanin.
        level = [0] * n
        for i, node in enumerate(order):
            if node.is_gate and node.fanins:
                level[i] = 1 + max(level[idx[f.name]] for f in node.fanins)

        gates = [i for i in range(n) if order[i].is_gate]
        gates.sort(key=lambda i: level[i])  # stable: topo order within level
        self._gate_ids = np.array(gates, dtype=np.int64)
        self._gate_list = gates
        self._gate_pos = {gi: j for j, gi in enumerate(gates)}
        self._level_slices = _group_slices([level[i] for i in gates])

        # Pin timing rows (gate-major in level order, pin-minor within).
        pin_src: List[int] = []
        pin_rb: List[float] = []
        pin_rr: List[float] = []
        pin_fb: List[float] = []
        pin_fr: List[float] = []
        pin_off: List[int] = [0]
        # Static output load stream: naive _node_load order is fanout-major
        # (PO -> pad_cap, gate -> matching input pins ascending), wire last.
        cap_vals: List[float] = []
        cap_off: List[int] = [0]
        # Wire net pins: the driver itself plus every fanout.
        wpin: List[int] = []
        woff: List[int] = [0]
        for i in gates:
            node = order[i]
            for pin_index, fanin in enumerate(node.fanins):
                timing = node.cell.pins[pin_index].timing
                pin_src.append(idx[fanin.name])
                pin_rb.append(timing.rise_block)
                pin_rr.append(timing.rise_resistance)
                pin_fb.append(timing.fall_block)
                pin_fr.append(timing.fall_resistance)
            pin_off.append(len(pin_src))
            for sink in node.fanouts:
                if sink.is_po:
                    cap_vals.append(self.pad_cap)
                elif sink.is_gate:
                    for pin_index, fanin in enumerate(sink.fanins):
                        if fanin is node:
                            cap_vals.append(sink.cell.pins[pin_index].input_cap)
            cap_off.append(len(cap_vals))
            wpin.append(i)
            wpin.extend(idx[s.name] for s in node.fanouts)
            woff.append(len(wpin))
        self._pin_src = np.array(pin_src, dtype=np.int64)
        self._pin_rb = np.array(pin_rb, dtype=np.float64)
        self._pin_rr = np.array(pin_rr, dtype=np.float64)
        self._pin_fb = np.array(pin_fb, dtype=np.float64)
        self._pin_fr = np.array(pin_fr, dtype=np.float64)
        self._pin_off = np.array(pin_off, dtype=np.int64)
        self._pin_counts = np.diff(self._pin_off)
        self._static_load = segment_sum_ordered(
            np.array(cap_vals, dtype=np.float64),
            np.array(cap_off, dtype=np.int64),
        )
        self._nfan = np.array(
            [float(len(order[i].fanouts)) for i in gates], dtype=np.float64
        )
        self._wpin = np.array(wpin, dtype=np.int64)
        self._woff = np.array(woff, dtype=np.int64)

        self._pi_ids = [i for i in range(n) if order[i].is_pi]
        self._po_ids = np.array(
            [i for i in range(n) if order[i].is_po], dtype=np.int64
        )
        self._po_drv = np.array(
            [idx[order[i].fanins[0].name] for i in self._po_ids],
            dtype=np.int64,
        )

        # Backward levels: a node is one past its deepest fanout.
        blevel = [0] * n
        for i in range(n - 1, -1, -1):
            fouts = order[i].fanouts
            if fouts:
                blevel[i] = 1 + max(blevel[idx[s.name]] for s in fouts)
        non_po = [i for i in range(n) if not order[i].is_po]
        non_po.sort(key=lambda i: blevel[i])
        self._bnodes = np.array(non_po, dtype=np.int64)
        self._blevel_slices = _group_slices([blevel[i] for i in non_po])

        # Required-time entries, fanout-major / pin-minor, one row per
        # candidate.  A PO sink contributes a zero-coefficient row whose
        # load reads the pad slot (index G, always 0.0): the candidate is
        # then ``required - 0.0``, bitwise-equal to the naive shortcut.
        gate_pos = self._gate_pos
        pad_slot = len(gates)
        ent_sink: List[int] = []
        ent_load: List[int] = []
        ent_rb: List[float] = []
        ent_rr: List[float] = []
        ent_fb: List[float] = []
        ent_fr: List[float] = []
        ent_off: List[int] = [0]
        for i in non_po:
            node = order[i]
            for sink in node.fanouts:
                si = idx[sink.name]
                if sink.is_po:
                    ent_sink.append(si)
                    ent_load.append(pad_slot)
                    ent_rb.append(0.0)
                    ent_rr.append(0.0)
                    ent_fb.append(0.0)
                    ent_fr.append(0.0)
                    continue
                ls = gate_pos.get(si, pad_slot)
                for pin_index, fanin in enumerate(sink.fanins):
                    if fanin is not node:
                        continue
                    timing = sink.cell.pins[pin_index].timing
                    ent_sink.append(si)
                    ent_load.append(ls)
                    ent_rb.append(timing.rise_block)
                    ent_rr.append(timing.rise_resistance)
                    ent_fb.append(timing.fall_block)
                    ent_fr.append(timing.fall_resistance)
            ent_off.append(len(ent_sink))
        self._ent_sink = np.array(ent_sink, dtype=np.int64)
        self._ent_load = np.array(ent_load, dtype=np.int64)
        self._ent_rb = np.array(ent_rb, dtype=np.float64)
        self._ent_rr = np.array(ent_rr, dtype=np.float64)
        self._ent_fb = np.array(ent_fb, dtype=np.float64)
        self._ent_fr = np.array(ent_fr, dtype=np.float64)
        self._ent_off = np.array(ent_off, dtype=np.int64)

    # -- loads -------------------------------------------------------------

    def _compute_loads(self) -> np.ndarray:
        """Per-gate output loads (gate-sorted order), wire term last."""
        static = self._static_load
        if self.wire_model is None:
            return static + self.wire_cap_per_fanout * self._nfan
        if not self._gate_list:
            return static
        order = self._order
        n = len(order)
        px = np.empty(n, dtype=np.float64)
        py = np.empty(n, dtype=np.float64)
        placed = np.zeros(n, dtype=bool)
        i = 0
        for node in order:
            pos = node.position
            if pos is not None:
                px[i] = pos.x
                py[i] = pos.y
                placed[i] = True
            i += 1
        wid = self._wpin
        starts = self._woff[:-1]
        pl = placed[wid]
        counts = np.add.reduceat(pl.astype(np.int64), starts)
        xs = px[wid]
        ys = py[wid]
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
        return static + wire

    # -- forward sweep -----------------------------------------------------

    def analyze(self) -> TimingReport:
        """Full forward pass; bitwise-equal to :func:`~repro.timing.sta.analyze`.

        Node ``arrival`` attributes are updated as a side effect, exactly
        as the naive pass does.
        """
        order = self._order
        n = len(order)
        with OBS.span("sta.analyze_array", nodes=n):
            rise = np.zeros(n, dtype=np.float64)
            fall = np.zeros(n, dtype=np.float64)
            worst = np.zeros(n, dtype=np.float64)
            ia = self.input_arrivals
            for i in self._pi_ids:
                t = ia.get(order[i].name, 0.0)
                rise[i] = t
                fall[i] = t
                worst[i] = t
            loads = self._compute_loads()
            gid_all = self._gate_ids
            pin_off = self._pin_off
            for gs, ge in self._level_slices:
                gid = gid_all[gs:ge]
                p0 = pin_off[gs]
                p1 = pin_off[ge]
                offs = pin_off[gs:ge + 1] - p0
                t = worst[self._pin_src[p0:p1]]
                ld = np.repeat(loads[gs:ge], self._pin_counts[gs:ge])
                r = np.maximum(
                    segment_max((t + self._pin_rb[p0:p1])
                                + self._pin_rr[p0:p1] * ld, offs),
                    0.0,
                )
                f = np.maximum(
                    segment_max((t + self._pin_fb[p0:p1])
                                + self._pin_fr[p0:p1] * ld, offs),
                    0.0,
                )
                rise[gid] = r
                fall[gid] = f
                worst[gid] = np.maximum(r, f)
            if len(self._po_ids):
                rise[self._po_ids] = rise[self._po_drv]
                fall[self._po_ids] = fall[self._po_drv]
                worst[self._po_ids] = worst[self._po_drv]

            report = TimingReport()
            arrivals = report.arrivals
            rise_l = rise.tolist()
            fall_l = fall.tolist()
            worst_l = worst.tolist()
            for i, node in enumerate(order):
                arrivals[node.name] = ArrivalTimes(rise_l[i], fall_l[i])
                node.arrival = worst_l[i]
            load_l = loads.tolist()
            gate_pos = self._gate_pos
            report_loads = report.loads
            for i, node in enumerate(order):
                if node.is_gate:
                    report_loads[node.name] = load_l[gate_pos[i]]
            _select_critical(self.mapped, report)
        if OBS.enabled:
            OBS.metrics.counter("perf.vec.sta_full").inc()
            OBS.metrics.counter("sta.node_visits").inc(n)
        return report

    # -- backward sweep ----------------------------------------------------

    def required_from(
        self, loads: Dict[str, float], deadline: float
    ) -> Dict[str, float]:
        """Backward pass from a live loads map under ``deadline``.

        Bitwise-equal to :func:`~repro.timing.sta.required_times` run
        against a report holding the same loads: candidates evaluate as
        ``required[sink] - max(rb + rr*load, fb + fr*load)`` and fold
        through an order-independent min; empty candidate sets (and every
        PO) take the deadline.
        """
        order = self._order
        n = len(order)
        ngates = len(self._gate_list)
        la = np.empty(ngates + 1, dtype=np.float64)
        for j, gi in enumerate(self._gate_list):
            la[j] = loads.get(order[gi].name, 0.0)
        la[ngates] = 0.0
        req = np.full(n, deadline, dtype=np.float64)
        ent_off = self._ent_off
        bnodes = self._bnodes
        for ns, ne in self._blevel_slices:
            nid = bnodes[ns:ne]
            e0 = ent_off[ns]
            e1 = ent_off[ne]
            offs = ent_off[ns:ne + 1] - e0
            ld = la[self._ent_load[e0:e1]]
            stage = np.maximum(
                self._ent_rb[e0:e1] + self._ent_rr[e0:e1] * ld,
                self._ent_fb[e0:e1] + self._ent_fr[e0:e1] * ld,
            )
            cand = req[self._ent_sink[e0:e1]] - stage
            mn = segment_min(cand, offs)
            counts = offs[1:] - offs[:-1]
            req[nid] = np.where(counts > 0, mn, deadline)
        if OBS.enabled:
            OBS.metrics.counter("perf.vec.sta_required").inc()
        req_l = req.tolist()
        required: Dict[str, float] = {}
        for i in range(n - 1, -1, -1):
            required[order[i].name] = req_l[i]
        return required

    def required(
        self, report: TimingReport, deadline: Optional[float] = None
    ) -> Dict[str, float]:
        """Required times against an analysed report (default deadline:
        the critical delay, making the critical path zero-slack)."""
        if deadline is None:
            deadline = report.critical_delay
        return self.required_from(report.loads, deadline)


def analyze_array(
    mapped: MappedNetwork,
    wire_model: Optional[WireCapModel] = None,
    input_arrivals: Optional[Dict[str, float]] = None,
    pad_cap: float = 0.25,
    wire_cap_per_fanout: float = 0.0,
) -> TimingReport:
    """One-shot array-form STA (build + forward sweep).

    Drop-in for :func:`~repro.timing.sta.analyze` with a bitwise-equal
    report.  Repeated analyses over a fixed topology should hold an
    :class:`ArraySTA` instead and amortise the flattening.
    """
    return ArraySTA(
        mapped,
        wire_model=wire_model,
        input_arrivals=input_arrivals,
        pad_cap=pad_cap,
        wire_cap_per_fanout=wire_cap_per_fanout,
    ).analyze()
