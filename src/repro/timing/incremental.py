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

Full passes (construction, a new deadline) run on the reference
engine itself: :func:`~repro.timing.sta.analyze` and
:func:`~repro.timing.sta.required_times`.  The frontiers walk one node
at a time, forward in topological order and backward in reverse
topological order, through the same per-node helpers
(:func:`~repro.timing.sta._node_load`,
:func:`~repro.timing.sta._node_arrival`,
:func:`~repro.timing.sta._node_required`).  A node pops only after every
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
from repro.map.netlist import MappedNetwork, MappedNode
from repro.obs import OBS
from repro.timing.model import WireCapModel
from repro.timing.sta import (
    ArrivalTimes,
    TimingReport,
    _node_arrival,
    _node_load,
    _node_required,
    _select_critical,
    analyze,
    report_mismatches,
    required_times,
)

__all__ = ["IncrementalTiming"]


class IncrementalTiming:
    """A live timing report over a mapped netlist.

    Args:
        mapped: the placed mapped netlist (positions are read live).
        wire_model: as for :func:`~repro.timing.sta.analyze`.
        input_arrivals: PI name -> arrival time (default 0).
        pad_cap: load presented by an output pad.
        wire_cap_per_fanout: fallback lumped wire cap per fanout.
        vec: accepted for callers that still select the engine by name;
            there is one engine, so anything but ``True`` raises
            :class:`ValueError`.

    The constructor runs one full :func:`~repro.timing.sta.analyze`
    pass; afterwards
    :meth:`set_position` / :meth:`set_input_arrival` record changes and
    :meth:`update` refreshes :attr:`report` by frontier propagation.
    Positions must change through :meth:`set_position` (or
    :meth:`invalidate` after a direct mutation) so the engine knows what
    is dirty.
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
                "IncrementalTiming has one engine; vec must be True, "
                f"got {vec!r}"
            )
        self.mapped = mapped
        self.wire_model = wire_model
        self.input_arrivals = dict(input_arrivals or {})
        self.pad_cap = pad_cap
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.report = analyze(
            mapped,
            wire_model=wire_model,
            input_arrivals=self.input_arrivals,
            pad_cap=pad_cap,
            wire_cap_per_fanout=wire_cap_per_fanout,
        )
        self._order = mapped.topological_order()
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
        self._mark(node, load_too=True)
        for fanin in node.fanins:
            self._mark(fanin, load_too=True)

    def set_input_arrival(self, name: str, arrival: float) -> None:
        """Change a primary input's arrival time."""
        self.input_arrivals[name] = arrival
        self._mark(self._node[name], load_too=False)

    def invalidate(self, name: str) -> None:
        """Force one node (arrival and load) to recompute on next update."""
        self._mark(self._node[name], load_too=True)

    # -- forward frontier ----------------------------------------------------

    def update(self) -> TimingReport:
        """Propagate pending changes; returns the refreshed live report.

        Dirty nodes pop in topological order; a node whose arrival
        changed (bitwise) queues its fanouts.
        """
        if not self._dirty:
            return self.report
        self.updates += 1
        report = self.report
        arrivals = report.arrivals
        loads = report.loads
        order = self._order
        topo = self._topo
        load_dirty = self._load_dirty
        heap = [topo[name] for name in self._dirty]
        queued = set(heap)
        heapq.heapify(heap)
        while heap:
            node = order[heapq.heappop(heap)]
            name = node.name
            if node.is_gate:
                if name in load_dirty:
                    loads[name] = _node_load(
                        node, self.wire_model, self.pad_cap,
                        self.wire_cap_per_fanout)
                new = _node_arrival(node, arrivals, loads[name])
            elif node.is_po:
                new = arrivals[node.fanins[0].name]
            elif node.is_pi:
                new = ArrivalTimes.at(self.input_arrivals.get(name, 0.0))
            else:
                new = ArrivalTimes.at(0.0)
            old = arrivals[name]
            if old.rise != new.rise or old.fall != new.fall:
                arrivals[name] = new
                node.arrival = new.worst
                for sink in node.fanouts:
                    j = topo[sink.name]
                    if j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, j)
            elif name in load_dirty:
                node.arrival = old.worst
        self._dirty.clear()
        load_dirty.clear()
        self.nodes_recomputed += len(queued)
        _select_critical(self.mapped, report)
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
        order = self._order
        topo = self._topo
        loads = self.report.loads
        heap: List[int] = []
        queued: Set[int] = set()
        for name in self._required_stale:
            for fanin in self._node[name].fanins:
                j = topo[fanin.name]
                if j not in queued:
                    queued.add(j)
                    heap.append(-j)
        self._required_stale.clear()
        heapq.heapify(heap)
        while heap:
            node = order[-heapq.heappop(heap)]
            new = _node_required(node, required, loads, effective)
            if required[node.name] != new:
                required[node.name] = new
                for fanin in node.fanins:
                    j = topo[fanin.name]
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
            pad_cap=self.pad_cap,
            wire_cap_per_fanout=self.wire_cap_per_fanout,
        )
        return report_mismatches(
            self.report,
            self.required(deadline),
            fresh,
            required_times(self.mapped, fresh, deadline),
        )
