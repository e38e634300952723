"""Post-mapping fanout optimization (the Section 5 future-work item).

"Currently, Lily does not perform fanout optimization ... we could perform
a postprocessing pass to derive fanout trees."  This module implements
that pass: nets whose fanout exceeds a threshold get a placement-aware
buffer tree — sinks are clustered geometrically (recursive median
bisection), one buffer per cluster placed at the cluster's centre of mass,
recursively until every net is within the fanout bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geometry import Point, center_of_mass
from repro.library.cell import Cell, Library
from repro.map.netlist import MappedNetwork, MappedNode
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, slacks

__all__ = ["FanoutResult", "optimize_fanout", "buffer_cell"]


@dataclass
class FanoutResult:
    """Outcome of the fanout-optimization pass."""

    buffers_added: int = 0
    nets_buffered: int = 0
    delay_before: float = 0.0
    delay_after: float = 0.0

    @property
    def improved(self) -> bool:
        """Whether buffering strictly lowered the critical delay."""
        return self.delay_after < self.delay_before


def buffer_cell(library: Library) -> Cell:
    """The library's buffer (smallest non-inverting 1-input cell)."""
    buffers = [c for c in library if c.is_buffer]
    if not buffers:
        raise ValueError(f"library {library.name!r} has no buffer cell")
    return min(buffers, key=lambda c: c.area)


def _cluster_sinks(
    sinks: List[Tuple[MappedNode, int]], groups: int
) -> List[List[Tuple[MappedNode, int]]]:
    """Split sinks into geometric clusters by recursive median bisection."""
    if groups <= 1 or len(sinks) <= 1:
        return [sinks]

    def position(entry) -> Point:
        node, _pin = entry
        return node.position or Point(0.0, 0.0)

    xs = [position(s).x for s in sinks]
    ys = [position(s).y for s in sinks]
    split_on_x = (max(xs) - min(xs)) >= (max(ys) - min(ys))
    key = (lambda s: (position(s).x, position(s).y, s[0].name)) if split_on_x \
        else (lambda s: (position(s).y, position(s).x, s[0].name))
    ordered = sorted(sinks, key=key)
    mid = len(ordered) // 2
    left_groups = max(1, groups // 2)
    right_groups = max(1, groups - left_groups)
    return (
        _cluster_sinks(ordered[:mid], left_groups)
        + _cluster_sinks(ordered[mid:], right_groups)
    )


def _rewire(sink: MappedNode, pin: int, old: MappedNode, new: MappedNode) -> None:
    assert sink.fanins[pin] is old
    sink.fanins[pin] = new
    old.fanouts.remove(sink)
    new.fanouts.append(sink)


def _buffer_net(
    mapped: MappedNetwork,
    driver: MappedNode,
    buffer: Cell,
    max_fanout: int,
    counter: List[int],
    sink_slack: Optional[Dict[str, float]] = None,
) -> int:
    """Insert one level of buffers below ``driver``; returns buffers added.

    The most timing-critical sinks (lowest slack) stay directly connected —
    buffers only shield the driver from the non-critical load, the classic
    fanout-tree discipline.
    """
    sinks = [
        (node, pin)
        for node in list(driver.fanouts)
        for pin, fanin in enumerate(node.fanins)
        if fanin is driver
    ]
    if len(sinks) <= max_fanout:
        return 0
    if sink_slack:
        sinks.sort(
            key=lambda s: (sink_slack.get(s[0].name, float("inf")), s[0].name)
        )
    keep_direct = max(1, max_fanout // 2)
    direct, to_buffer = sinks[:keep_direct], sinks[keep_direct:]
    # The driver keeps its direct (critical) sinks plus at most
    # (max_fanout - keep_direct) buffers; oversized clusters recurse
    # below their buffer, forming a proper tree rather than a chain.
    slots = max(1, max_fanout - keep_direct)
    clusters = [c for c in _cluster_sinks(to_buffer, slots) if c]
    added = 0
    for cluster in clusters:
        counter[0] += 1
        name = f"fobuf_{counter[0]}"
        node = mapped.add_gate(name, buffer, [driver])
        positions = [
            s.position for s, _p in cluster if s.position is not None
        ]
        node.position = (
            center_of_mass(positions) if positions else driver.position
        )
        for sink, pin in cluster:
            _rewire(sink, pin, driver, node)
        added += 1
        if len(cluster) > max_fanout:
            added += _buffer_net(
                mapped, node, buffer, max_fanout, counter, sink_slack
            )
    return added


def optimize_fanout(
    mapped: MappedNetwork,
    library: Library,
    max_fanout: int = 4,
    wire_model: Optional[WireCapModel] = None,
    input_arrivals: Optional[Dict[str, float]] = None,
) -> FanoutResult:
    """Buffer every net whose fanout exceeds ``max_fanout`` (in place).

    Returns before/after critical delays from the wiring-aware STA.  The
    pass never changes network function (buffers are identities); whether
    it pays off depends on the library's buffer delay versus the load
    relief — the result reports both delays so callers can decide.
    """
    result = FanoutResult()
    before_report = analyze(mapped, wire_model=wire_model,
                            input_arrivals=input_arrivals)
    result.delay_before = before_report.critical_delay
    sink_slack = slacks(mapped, before_report)

    buffer = buffer_cell(library)
    counter = [0]
    for node in list(mapped.nodes):
        if not (node.is_gate or node.is_pi):
            continue
        added = _buffer_net(
            mapped, node, buffer, max_fanout, counter, sink_slack
        )
        if added:
            result.nets_buffered += 1
            result.buffers_added += added

    mapped.check()
    result.delay_after = analyze(
        mapped, wire_model=wire_model, input_arrivals=input_arrivals
    ).critical_delay
    return result
