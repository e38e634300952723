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

The constructor's full pass is the reference engine's own
(:func:`~repro.timing.sta.full_pass`, which :func:`~repro.timing.sta.analyze`
runs), and the engine keeps the :class:`~repro.timing.sta.TimingTables`
it compiled: the forward frontier walks integer node ids in topological
order over the tables' rise, fall, worst-arrival and load arrays,
through the same per-gate arithmetic
(:meth:`~repro.timing.sta.TimingTables.gate_load`,
:func:`~repro.timing.sta.gate_arrival`), and writes ``report.arrivals``,
``report.loads`` and ``node.arrival`` only where a value changed; the
critical PO is re-picked only when a PO's arrival changed.  The backward
frontier walks the same ids in reverse topological order through
:func:`~repro.timing.sta._node_required`, and a new deadline re-runs
:func:`~repro.timing.sta.required_times`.  A node pops only after every
neighbour it reads that could still change, so it is recomputed at most
once per update, and the report is bit-identical to a fresh ``analyze``
of the current netlist — :meth:`IncrementalTiming.check_against_full`
asserts exactly that, required times included, and is wired into
``repro.verify``.  (A move dirties a few nodes per logic level, too few
for gathered array folds to pay; ``docs/SCALING.md`` has the
measurement.)
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from repro.geometry import Point
from repro.map.netlist import MappedNetwork
from repro.obs import OBS
from repro.timing.model import WireCapModel
from repro.timing.sta import (
    GATE,
    PI,
    PO,
    ArrivalTimes,
    TimingReport,
    _node_required,
    analyze,
    full_pass,
    gate_arrival,
    report_mismatches,
    required_times,
)

__all__ = ["IncrementalTiming"]


class IncrementalTiming:
    """A live timing report over a mapped netlist.

    Args:
        mapped: the placed mapped netlist (positions are read live).
        wire_model: as for :func:`~repro.timing.sta.analyze`.
        vec: accepted for callers that still select the engine by name;
            there is one engine, so anything but ``True`` raises
            :class:`ValueError`.

    The constructor runs one full pass
    (:func:`~repro.timing.sta.full_pass`, every primary input arriving
    at 0) and keeps its tables; afterwards
    :meth:`set_position` / :meth:`set_input_arrival` record changes and
    :meth:`update` refreshes :attr:`report` by frontier propagation.
    Positions must change through :meth:`set_position` (or
    :meth:`invalidate` after a direct mutation) so the engine knows what
    is dirty.  The netlist's structure must not change.
    """

    def __init__(
        self,
        mapped: MappedNetwork,
        wire_model: Optional[WireCapModel] = None,
        vec: bool = True,
    ) -> None:
        if vec is not True:
            raise ValueError(
                "IncrementalTiming has one engine; vec must be True, "
                f"got {vec!r}"
            )
        self.mapped = mapped
        self.wire_model = wire_model
        #: PI name -> arrival time, as :meth:`set_input_arrival` left it.
        self.input_arrivals: Dict[str, float] = {}
        self._tables = full_pass(mapped, wire_model=wire_model)
        self.report = self._tables.report
        self._dirty: Set[int] = set()
        self._load_dirty: Set[int] = set()
        #: Gates whose load changed since the required times were cached
        #: (drives the backward frontier).
        self._required_stale: Set[int] = set()
        self._required: Optional[Dict[str, float]] = None
        self._required_deadline: Optional[float] = None
        self.updates = 0
        self.nodes_recomputed = 0

    # -- change recording ----------------------------------------------------

    def _mark(self, i: int, load_too: bool) -> None:
        self._dirty.add(i)
        if load_too and self._tables.kinds[i] == GATE:
            self._load_dirty.add(i)
            self._required_stale.add(i)

    def set_position(self, name: str, position: Optional[Point]) -> None:
        """Move one node; dirties its own and its fanin-drivers' loads."""
        index = self._tables.index
        i = index[name]
        node = self._tables.nodes[i]
        node.position = position
        self._mark(i, load_too=True)
        for fanin in node.fanins:
            self._mark(index[fanin.name], load_too=True)

    def set_input_arrival(self, name: str, arrival: float) -> None:
        """Change a primary input's arrival time."""
        self.input_arrivals[name] = arrival
        self._mark(self._tables.index[name], load_too=False)

    def invalidate(self, name: str) -> None:
        """Force one node (arrival and load) to recompute on next update."""
        self._mark(self._tables.index[name], load_too=True)

    # -- forward frontier ----------------------------------------------------

    def update(self) -> TimingReport:
        """Propagate pending changes; returns the refreshed live report.

        Dirty nodes pop in topological order; a node whose arrival
        changed (bitwise) queues its fanouts.
        """
        if not self._dirty:
            return self.report
        self.updates += 1
        tables = self._tables
        kinds = tables.kinds
        pins = tables.pins
        fanouts = tables.fanouts
        names = tables.names
        nodes = tables.nodes
        rise = tables.rise
        fall = tables.fall
        worst = tables.worst
        gate_loads = tables.loads
        report = self.report
        arrivals = report.arrivals
        loads = report.loads
        load_dirty = self._load_dirty
        input_arrivals = self.input_arrivals
        heap = list(self._dirty)
        queued = set(heap)
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        po_changed = False
        while heap:
            i = pop(heap)
            kind = kinds[i]
            if kind == GATE:
                load = gate_loads[i]
                if i in load_dirty:
                    new_load = tables.gate_load(i)
                    if new_load != load:
                        gate_loads[i] = load = new_load
                        loads[names[i]] = new_load
                r, f = gate_arrival(pins[i], worst, load)
            elif kind == PO:
                r = rise[pins[i]]
                f = fall[pins[i]]
            else:
                r = f = (input_arrivals.get(names[i], 0.0) if kind == PI
                         else 0.0)
            if r != rise[i] or f != fall[i]:
                rise[i] = r
                fall[i] = f
                worst[i] = nodes[i].arrival = f if f > r else r
                if kind == PO:
                    arrivals[names[i]] = arrivals[names[pins[i]]]
                    po_changed = True
                else:
                    arrivals[names[i]] = ArrivalTimes(r, f)
                for j in fanouts[i]:
                    if j not in queued:
                        queued.add(j)
                        push(heap, j)
        self._dirty.clear()
        load_dirty.clear()
        self.nodes_recomputed += len(queued)
        if po_changed:
            tables.select_critical(report)
        if OBS.enabled:
            OBS.metrics.counter("perf.incremental.sta_updates").inc()
            OBS.metrics.counter(
                "perf.incremental.sta_nodes").inc(len(queued))
        return report

    # -- backward frontier ---------------------------------------------------

    def required(self, deadline: Optional[float] = None) -> Dict[str, float]:
        """Required times under ``deadline`` (default: critical delay).

        Recomputes the full backward pass
        (:func:`~repro.timing.sta.required_times`) when the effective
        deadline changed (a new deadline touches every PO);
        otherwise refreshes only the fanin cones of the gates whose load
        changed since the last call.
        """
        self.update()
        report = self.report
        effective = (
            deadline if deadline is not None else report.critical_delay
        )
        required = self._required
        if required is None or effective != self._required_deadline:
            required = required_times(self.mapped, report, effective)
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
        """Backward frontier: nodes pop in reverse topological order.

        A node's required time reads only its fanouts', so it pops after
        every fanout that could still change; a changed value (bitwise)
        queues the node's fanins.  POs never enter: seeds and propagation
        both follow fanin edges.
        """
        nodes = self._tables.nodes
        index = self._tables.index
        loads = self.report.loads
        heap: List[int] = []
        queued: Set[int] = set()
        for i in self._required_stale:
            for fanin in nodes[i].fanins:
                j = index[fanin.name]
                if j not in queued:
                    queued.add(j)
                    heap.append(-j)
        self._required_stale.clear()
        heapq.heapify(heap)
        while heap:
            node = nodes[-heapq.heappop(heap)]
            new = _node_required(node, required, loads, effective)
            if required[node.name] != new:
                required[node.name] = new
                for fanin in node.fanins:
                    j = index[fanin.name]
                    if j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, -j)
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
        the same deadline, through
        :func:`~repro.timing.sta.report_mismatches`.  Returns
        human-readable mismatch descriptions (empty = exact).  Used by
        ``repro.verify`` as the incremental engine's audit.
        """
        self.update()
        fresh = analyze(
            self.mapped,
            wire_model=self.wire_model,
            input_arrivals=self.input_arrivals,
        )
        return report_mismatches(
            self.report,
            self.required(deadline),
            fresh,
            required_times(self.mapped, fresh, deadline),
        )
