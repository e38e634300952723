"""Static timing analysis over a mapped netlist.

Implements the recursion of Section 4.1 exactly:

    t_y = max_i ( t_i + I_i + R_i * C_L )      (rise/fall tracked separately)

with ``C_L`` the sum of fanout pin capacitances plus the lumped wire
capacitance of the output net (Section 4.2).  The mapped netlist must be
placed (gate positions and pad positions known) for the wire term; without
positions the wire term falls back to zero or a per-fanout constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.geometry import Point
from repro.map.netlist import MappedNetwork, MappedNode
from repro.obs import OBS
from repro.timing.model import WireCapModel, net_wire_capacitance

__all__ = [
    "ArrivalTimes",
    "TimingReport",
    "analyze",
    "critical_path",
    "report_mismatches",
    "required_times",
    "slacks",
]


@dataclass(frozen=True)
class ArrivalTimes:
    """Rise/fall arrival at a node output."""

    rise: float
    fall: float

    @property
    def worst(self) -> float:
        """The later of the rise and fall arrivals."""
        return max(self.rise, self.fall)

    @staticmethod
    def at(value: float) -> "ArrivalTimes":
        """Equal rise and fall arrivals at ``value``."""
        return ArrivalTimes(value, value)


@dataclass
class TimingReport:
    """Full STA result."""

    arrivals: Dict[str, ArrivalTimes] = field(default_factory=dict)
    loads: Dict[str, float] = field(default_factory=dict)
    critical_po: Optional[str] = None
    critical_delay: float = 0.0

    def slack(self, deadline: float) -> float:
        """Critical-path slack against ``deadline`` (negative = late)."""
        return deadline - self.critical_delay


def required_times(
    mapped: MappedNetwork,
    report: TimingReport,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """Backward pass: latest allowed arrival per node output.

    The required time of a PO is the deadline (default: the critical
    delay, making the critical path zero-slack); an internal node's
    required time is the minimum over its fanouts of their required time
    minus the fanout stage's worst gate delay under the analysed load.
    """
    if deadline is None:
        deadline = report.critical_delay
    required: Dict[str, float] = {}
    for node in reversed(mapped.topological_order()):
        if node.is_po:
            required[node.name] = deadline
            continue
        required[node.name] = _node_required(
            node, required, report.loads, deadline
        )
    return required


def _node_required(
    node: MappedNode,
    required: Dict[str, float],
    loads: Dict[str, float],
    deadline: float,
) -> float:
    """Required time of one node from its fanouts' required times."""
    candidates = []
    for sink in node.fanouts:
        sink_required = required.get(sink.name)
        if sink_required is None:
            continue
        if sink.is_po:
            candidates.append(sink_required)
            continue
        load = loads.get(sink.name, 0.0)
        for pin_index, fanin in enumerate(sink.fanins):
            if fanin is not node:
                continue
            timing = sink.cell.pins[pin_index].timing
            stage = max(
                timing.rise_block + timing.rise_resistance * load,
                timing.fall_block + timing.fall_resistance * load,
            )
            candidates.append(sink_required - stage)
    return min(candidates) if candidates else deadline


def slacks(
    mapped: MappedNetwork,
    report: TimingReport,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """Per-node slack = required time - arrival time."""
    required = required_times(mapped, report, deadline)
    return {
        name: required[name] - report.arrivals[name].worst
        for name in required
        if name in report.arrivals
    }


def _node_load(
    node: MappedNode,
    wire_model: Optional[WireCapModel],
    pad_cap: float,
    wire_cap_per_fanout: float,
) -> float:
    """Output load of a node: fanout pin caps + wire capacitance."""
    load = 0.0
    for sink in node.fanouts:
        if sink.is_po:
            load += pad_cap
        elif sink.is_gate:
            for pin_index, fanin in enumerate(sink.fanins):
                if fanin is node:
                    load += sink.cell.pins[pin_index].input_cap
    if wire_model is not None:
        positions: List[Point] = []
        if node.position is not None:
            positions.append(node.position)
        for sink in node.fanouts:
            if sink.position is not None:
                positions.append(sink.position)
        load += net_wire_capacitance(positions, wire_model)
    else:
        load += wire_cap_per_fanout * len(node.fanouts)
    return load


def analyze(
    mapped: MappedNetwork,
    wire_model: Optional[WireCapModel] = None,
    input_arrivals: Optional[Dict[str, float]] = None,
    pad_cap: float = 0.25,
    wire_cap_per_fanout: float = 0.0,
) -> TimingReport:
    """Propagate rise/fall arrival times from PIs to POs.

    Args:
        mapped: the (ideally placed) mapped netlist.
        wire_model: per-unit-length wire capacitance; ``None`` disables the
            positional wire term and uses ``wire_cap_per_fanout`` instead.
        input_arrivals: PI name -> arrival time (default 0).
        pad_cap: load presented by an output pad.
        wire_cap_per_fanout: fallback lumped wire cap per fanout.

    Returns:
        A :class:`TimingReport`; node ``arrival`` attributes are updated
        with the worst-case values as a side effect.
    """
    input_arrivals = input_arrivals or {}
    report = TimingReport()
    order = mapped.topological_order()
    if OBS.enabled:
        OBS.metrics.counter("sta.node_visits").inc(len(order))
    with OBS.span("sta.analyze", nodes=len(order)):
        _propagate(mapped, order, report, wire_model, input_arrivals,
                   pad_cap, wire_cap_per_fanout)
    return report


def _propagate(
    mapped: MappedNetwork,
    order: Sequence[MappedNode],
    report: TimingReport,
    wire_model: Optional[WireCapModel],
    input_arrivals: Dict[str, float],
    pad_cap: float,
    wire_cap_per_fanout: float,
) -> None:
    for node in order:
        if node.is_pi:
            t = input_arrivals.get(node.name, 0.0)
            report.arrivals[node.name] = ArrivalTimes.at(t)
        elif node.is_constant:
            report.arrivals[node.name] = ArrivalTimes.at(0.0)
        elif node.is_po:
            report.arrivals[node.name] = report.arrivals[node.fanins[0].name]
        else:
            load = _node_load(node, wire_model, pad_cap, wire_cap_per_fanout)
            report.loads[node.name] = load
            report.arrivals[node.name] = _node_arrival(
                node, report.arrivals, load
            )
        node.arrival = report.arrivals[node.name].worst

    _select_critical(mapped, report)


def _node_arrival(
    node: MappedNode, arrivals: Dict[str, ArrivalTimes], load: float
) -> ArrivalTimes:
    """Gate output arrival from its fanin arrivals and output load.

    Inverting-style worst case: the output rise is driven by the input
    fall and vice versa; using the conservative max(rise, fall) of the
    input keeps the model simple and monotone, as MIS 2.1 does for
    UNKNOWN-phase pins.
    """
    rise = 0.0
    fall = 0.0
    for pin_index, fanin in enumerate(node.fanins):
        timing = node.cell.pins[pin_index].timing
        t = arrivals[fanin.name].worst
        rise = max(rise, t + timing.rise_block
                   + timing.rise_resistance * load)
        fall = max(fall, t + timing.fall_block
                   + timing.fall_resistance * load)
    return ArrivalTimes(rise, fall)


def _select_critical(mapped: MappedNetwork, report: TimingReport) -> None:
    """(Re-)pick the critical PO; same last-wins ``>=`` scan as always."""
    report.critical_delay = 0.0
    report.critical_po = None
    for po in mapped.primary_outputs:
        t = report.arrivals[po.name].worst
        if t >= report.critical_delay:
            report.critical_delay = t
            report.critical_po = po.name


def critical_path(
    mapped: MappedNetwork, report: TimingReport
) -> List[MappedNode]:
    """Trace the worst path backwards from the critical output."""
    if report.critical_po is None:
        return []
    path: List[MappedNode] = []
    node = mapped[report.critical_po]
    while node is not None:
        path.append(node)
        if node.is_pi or node.is_constant or not node.fanins:
            break
        node = max(
            node.fanins,
            key=lambda f: report.arrivals[f.name].worst,
        )
    path.reverse()
    return path


def report_mismatches(
    report: TimingReport,
    required: Dict[str, float],
    reference: TimingReport,
    reference_required: Dict[str, float],
) -> List[str]:
    """Bitwise differences between a timing result and a reference pass.

    Compares arrivals (rise and fall), loads, the critical output and
    delay, and the two required-time maps with ``==`` on every float.
    Returns one description per arrival or load mismatch, per critical
    field and one for the whole required-time map; empty means exact.
    :meth:`~repro.timing.incremental.IncrementalTiming.check_against_full`
    compares the live incremental report with a fresh :func:`analyze`
    through it, and ``repro.verify`` audits that comparison.
    """
    problems: List[str] = []
    for name, want in reference.arrivals.items():
        got = report.arrivals.get(name)
        if got is None or got.rise != want.rise or got.fall != want.fall:
            problems.append(
                f"arrival mismatch at {name}: got={got} reference={want}"
            )
    for name in report.arrivals:
        if name not in reference.arrivals:
            problems.append(f"stale arrival entry {name}")
    for name, want in reference.loads.items():
        got = report.loads.get(name)
        if got != want:
            problems.append(
                f"load mismatch at {name}: got={got} reference={want}"
            )
    for name in report.loads:
        if name not in reference.loads:
            problems.append(f"stale load entry {name}")
    if report.critical_po != reference.critical_po:
        problems.append(
            f"critical PO mismatch: got={report.critical_po} "
            f"reference={reference.critical_po}"
        )
    if report.critical_delay != reference.critical_delay:
        problems.append(
            f"critical delay mismatch: got={report.critical_delay!r} "
            f"reference={reference.critical_delay!r}"
        )
    if required != reference_required:
        bad = sorted(
            name for name in set(reference_required) | set(required)
            if required.get(name) != reference_required.get(name)
        )
        problems.append(
            f"required-time mismatch at {len(bad)} nodes "
            f"(e.g. {bad[0]}: got={required.get(bad[0])!r} "
            f"reference={reference_required.get(bad[0])!r})"
        )
    return problems
