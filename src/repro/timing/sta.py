"""Static timing analysis over a mapped netlist.

Implements the recursion of Section 4.1 exactly:

    t_y = max_i ( t_i + I_i + R_i * C_L )      (rise/fall tracked separately)

with ``C_L`` the sum of fanout pin capacitances plus the lumped wire
capacitance of the output net (Section 4.2).  The mapped netlist must be
placed (gate positions and pad positions known) for the wire term; without
a wire model the wire term is zero.  Every output pad presents
:data:`~repro.timing.model.PAD_CAP`.

A forward pass compiles the netlist into integer-indexed
:class:`TimingTables` and evaluates each node as it is compiled;
:class:`~repro.timing.incremental.IncrementalTiming` keeps the tables of
its construction pass for its dirty frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.library.cell import Cell
from repro.map.netlist import MappedNetwork, MappedNode, MappedNodeKind
from repro.obs import OBS
from repro.timing.model import PAD_CAP, WireCapModel, net_wire_capacitance

__all__ = [
    "ArrivalTimes",
    "TimingReport",
    "TimingTables",
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


#: Node kinds in :class:`TimingTables`.
PI, CONSTANT, PO, GATE = range(4)

_KINDS = {
    MappedNodeKind.PRIMARY_INPUT: PI,
    MappedNodeKind.CONSTANT: CONSTANT,
    MappedNodeKind.PRIMARY_OUTPUT: PO,
    MappedNodeKind.GATE: GATE,
}


class TimingTables:
    """A mapped netlist compiled into integer timing tables.

    Node ``i`` is the ``i``-th node of the topological order;
    ``nodes``, ``names`` and ``index`` (name -> ``i``) translate.  Per
    node: ``kinds[i]``; ``pins[i]``, for a gate one ``(fanin, (rise
    block, rise R, fall block, fall R))`` tuple per pin (the delay
    coefficients are one tuple per cell pin, shared by every instance),
    for a PO its driver's index, else ``()``; ``fanouts[i]``, the
    indices of its fanout entries.  Per gate: ``pin_loads[i]``, the
    capacitance of its fanout pins (:func:`_pin_load`).  ``outputs``
    lists the POs' indices in ``mapped.primary_outputs`` order.
    ``rise``, ``fall``, ``worst`` and ``loads`` hold each node's current
    values (``loads``: 0.0 for non-gates);
    :class:`~repro.timing.incremental.IncrementalTiming` keeps them
    current after construction.

    The tables depend on the netlist's structure and on ``wire_model``;
    positions are read live by
    :meth:`gate_load`.  Construction is the full forward pass: each node
    is compiled and then evaluated in the same loop (its fanins already
    are), filling the arrays, :attr:`report`, and every node's
    ``arrival`` (its worst arrival).  ``index`` and ``fanouts`` serve
    only the frontier, so they are compiled on first use and a one-shot
    :func:`analyze` never builds them.
    """

    def __init__(
        self,
        mapped: MappedNetwork,
        order: Sequence[MappedNode],
        wire_model: Optional[WireCapModel],
        input_arrivals: Dict[str, float],
    ) -> None:
        n = len(order)
        self.wire_model = wire_model
        self.nodes = order
        self.names = names = [node.name for node in order]
        index_of = dict(zip(order, range(n))).__getitem__
        self.kinds = kinds = [_KINDS[node.kind] for node in order]
        self.pins: List[object] = []
        self.pin_loads = pin_loads = [0.0] * n
        self.rise = rise = [0.0] * n
        self.fall = fall = [0.0] * n
        self.worst = worst = [0.0] * n
        self.loads = gate_loads = [0.0] * n
        self.report = report = TimingReport()
        arrivals = report.arrivals
        loads = report.loads
        add_pins = self.pins.append
        gate_load = self.gate_load
        timing_of: Dict[Cell, Tuple[Tuple[float, ...], ...]] = {}
        for i, node in enumerate(order):
            kind = kinds[i]
            name = names[i]
            if kind == GATE:
                cell = node.cell
                timing = timing_of.get(cell)
                if timing is None:
                    timing = timing_of[cell] = tuple(
                        (pin.timing.rise_block, pin.timing.rise_resistance,
                         pin.timing.fall_block, pin.timing.fall_resistance)
                        for pin in cell.pins)
                pins = tuple([(index_of(fanin), pin_timing)
                              for fanin, pin_timing
                              in zip(node.fanins, timing)])
                add_pins(pins)
                pin_loads[i] = _pin_load(node)
                gate_loads[i] = loads[name] = load = gate_load(i)
                r, f = gate_arrival(pins, worst, load)
                arrivals[name] = ArrivalTimes(r, f)
            elif kind == PO:
                driver = index_of(node.fanins[0])
                add_pins(driver)
                r = rise[driver]
                f = fall[driver]
                arrivals[name] = arrivals[names[driver]]
            else:
                add_pins(())
                r = f = input_arrivals.get(name, 0.0) if kind == PI else 0.0
                arrivals[name] = ArrivalTimes(r, f)
            rise[i] = r
            fall[i] = f
            worst[i] = node.arrival = f if f > r else r
        self.outputs = [index_of(po) for po in mapped.primary_outputs]
        self.select_critical(report)

    @cached_property
    def index(self) -> Dict[str, int]:
        """Node name -> index."""
        return dict(zip(self.names, range(len(self.names))))

    @cached_property
    def fanouts(self) -> List[Tuple[int, ...]]:
        """Per node, the indices of its fanout entries."""
        index = self.index
        return [tuple([index[sink.name] for sink in node.fanouts])
                for node in self.nodes]

    def gate_load(self, i: int) -> float:
        """Output load of gate ``i``: fanout pin caps + wire capacitance.

        The wire term reads the live positions of the gate and of each
        fanout entry (a sink on k pins counts k times, as in
        :meth:`~repro.map.netlist.Net.pin_positions`).
        """
        load = self.pin_loads[i]
        if self.wire_model is None:
            return load
        node = self.nodes[i]
        positions = [sink.position for sink in node.fanouts
                     if sink.position is not None]
        if node.position is not None:
            positions.append(node.position)
        return load + net_wire_capacitance(positions, self.wire_model)

    def select_critical(self, report: TimingReport) -> None:
        """(Re-)pick the critical PO: the last output whose worst arrival
        is ``>=`` every earlier one, in ``mapped.primary_outputs`` order."""
        worst = self.worst
        delay = 0.0
        critical = None
        for i in self.outputs:
            if worst[i] >= delay:
                delay = worst[i]
                critical = i
        report.critical_delay = delay
        report.critical_po = None if critical is None else self.names[critical]


def _pin_load(node: MappedNode) -> float:
    """Capacitance of ``node``'s fanout pins, each ``(sink, pin)`` once.

    A sink reading ``node`` on k pins is listed k times in
    ``node.fanouts``; its pins are summed at its first entry.  Output
    pads present :data:`~repro.timing.model.PAD_CAP`.  Summed in fanout
    order.
    """
    load = 0.0
    fanouts = node.fanouts
    for entry, sink in enumerate(fanouts):
        if sink.kind is MappedNodeKind.GATE:
            fanins = sink.fanins
            if fanins.count(node) == 1:
                load += sink.cell.pins[fanins.index(node)].input_cap
            elif fanouts.index(sink) == entry:
                for pin_index, fanin in enumerate(fanins):
                    if fanin is node:
                        load += sink.cell.pins[pin_index].input_cap
        elif sink.kind is MappedNodeKind.PRIMARY_OUTPUT:
            load += PAD_CAP
    return load


def gate_arrival(
    pins: Sequence[Tuple[int, Tuple[float, float, float, float]]],
    worst: Sequence[float],
    load: float,
) -> Tuple[float, float]:
    """Gate output ``(rise, fall)`` from its fanins' worst arrivals.

    ``t_y = max_i(t_i + I_i + R_i * C_L)``, rise and fall apart.
    Inverting-style worst case: the output rise is driven by the input
    fall and vice versa; using the conservative max(rise, fall) of the
    input keeps the model simple and monotone, as MIS 2.1 does for
    UNKNOWN-phase pins.
    """
    rise = 0.0
    fall = 0.0
    for fanin, (rise_block, rise_r, fall_block, fall_r) in pins:
        t = worst[fanin]
        r = t + rise_block + rise_r * load
        if r > rise:
            rise = r
        f = t + fall_block + fall_r * load
        if f > fall:
            fall = f
    return rise, fall


def full_pass(
    mapped: MappedNetwork,
    wire_model: Optional[WireCapModel] = None,
    input_arrivals: Optional[Dict[str, float]] = None,
) -> TimingTables:
    """Compile ``mapped`` into tables and run the full forward pass.

    Arguments as for :func:`analyze`; the returned tables hold the
    pass's arrays and its :attr:`TimingTables.report`.
    """
    order = mapped.topological_order()
    if OBS.enabled:
        OBS.metrics.counter("sta.node_visits").inc(len(order))
    with OBS.span("sta.analyze", nodes=len(order)):
        return TimingTables(mapped, order, wire_model, input_arrivals or {})


def analyze(
    mapped: MappedNetwork,
    wire_model: Optional[WireCapModel] = None,
    input_arrivals: Optional[Dict[str, float]] = None,
) -> TimingReport:
    """Propagate rise/fall arrival times from PIs to POs.

    Args:
        mapped: the (ideally placed) mapped netlist.
        wire_model: per-unit-length wire capacitance; ``None`` disables the
            wire term.
        input_arrivals: PI name -> arrival time (default 0).

    Returns:
        A :class:`TimingReport`; node ``arrival`` attributes are updated
        with the worst-case values as a side effect.  The pass is the
        construction of :class:`TimingTables`, which compiles and
        evaluates each node in one loop.
    """
    return full_pass(mapped, wire_model, input_arrivals).report


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
