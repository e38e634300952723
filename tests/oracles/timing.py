"""Per-node heap-walk timing frontiers: the oracle of the array frontier.

:class:`PerNodeIncrementalTiming` records changes exactly like
:class:`repro.timing.incremental.IncrementalTiming` but starts from
:func:`repro.timing.sta.analyze` and propagates them one node at a time
in topological (forward) and reverse-topological (backward) heap order,
with the same bitwise value-change gating.  The level-batched array
frontier must produce the same arrivals, loads, critical path and
required times bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from repro.timing.incremental import IncrementalTiming
from repro.timing.sta import (
    ArrivalTimes,
    TimingReport,
    _node_arrival,
    _node_load,
    _node_required,
    _select_critical,
    analyze,
    required_times,
)


class PerNodeIncrementalTiming(IncrementalTiming):
    """``IncrementalTiming`` whose frontiers walk one node at a time."""

    def __init__(self, mapped, wire_model=None, input_arrivals=None,
                 pad_cap: float = 0.25,
                 wire_cap_per_fanout: float = 0.0) -> None:
        super().__init__(mapped, wire_model, input_arrivals, pad_cap,
                         wire_cap_per_fanout)
        self.report = analyze(
            mapped,
            wire_model=wire_model,
            input_arrivals=self.input_arrivals,
            pad_cap=pad_cap,
            wire_cap_per_fanout=wire_cap_per_fanout,
        )

    def update(self) -> TimingReport:
        if not self._dirty:
            return self.report
        self.updates += 1
        report = self.report
        arrivals = report.arrivals
        loads = report.loads
        topo = self._topo
        heap: List[int] = [topo[name] for name in self._dirty]
        queued = set(heap)
        heapq.heapify(heap)
        recomputed = 0
        while heap:
            i = heapq.heappop(heap)
            node = self._order[i]
            name = node.name
            recomputed += 1
            old = arrivals.get(name)
            if node.is_pi:
                new = ArrivalTimes.at(self.input_arrivals.get(name, 0.0))
            elif node.is_constant:
                new = ArrivalTimes.at(0.0)
            elif node.is_po:
                new = arrivals[node.fanins[0].name]
            else:
                if name in self._load_dirty:
                    load = _node_load(node, self.wire_model, self.pad_cap,
                                      self.wire_cap_per_fanout)
                    loads[name] = load
                else:
                    load = loads[name]
                new = _node_arrival(node, arrivals, load)
            if old is None or old.rise != new.rise or old.fall != new.fall:
                arrivals[name] = new
                node.arrival = new.worst
                for sink in node.fanouts:
                    j = topo.get(sink.name)
                    if j is not None and j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, j)
            elif name in self._load_dirty:
                node.arrival = new.worst
        self._dirty.clear()
        self._load_dirty.clear()
        self.nodes_recomputed += recomputed
        _select_critical(self.mapped, report)
        return report

    def required(self, deadline: Optional[float] = None) -> Dict[str, float]:
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
        topo = self._topo
        heap: List[int] = []
        queued: Set[int] = set()
        for name in self._required_stale:
            for fanin in self._node[name].fanins:
                j = topo.get(fanin.name)
                if j is not None and j not in queued:
                    queued.add(j)
                    heapq.heappush(heap, -j)
        self._required_stale.clear()
        loads = report.loads
        while heap:
            i = -heapq.heappop(heap)
            node = self._order[i]
            if node.is_po:
                continue
            new = _node_required(node, required, loads, effective)
            if required.get(node.name) != new:
                required[node.name] = new
                for fanin in node.fanins:
                    j = topo.get(fanin.name)
                    if j is not None and j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, -j)
        return required
