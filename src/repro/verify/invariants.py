"""Structural invariant checkers for every pipeline artifact.

One checker per artifact family, each auditing the facts the rest of the
pipeline silently relies on:

* **Boolean network** — node arity by kind, fanin/fanout backlink
  symmetry, local functions present and width-consistent, acyclicity;
* **subject graph** — base-function arity, symmetry, acyclicity, and
  structural-hash uniqueness (no duplicate NAND2 pair / INV chain);
* **mapped netlist** — gate fanin count equals cell pin count, PO/PI/
  constant arity, symmetry, acyclicity;
* **cone partition** — every cone is exactly the transitive-fanin gate set
  of its output, recomputed independently, and the cones jointly cover all
  live gates (Section 3.5's K_i partition);
* **lifecycle** — the recorded egg/nestling/dove/hawk history replays
  legally under Figure 2.2 and ends with only hawks and doves alive;
* **placement** — every gate is placed, appears in exactly one row, row
  spans do not overlap, and positions agree with the row geometry;
* **timing** — loads are non-negative (and reproducible from the netlist),
  arrivals are monotone along every edge, the critical delay matches the
  worst output, and no slack is negative at the default deadline.

Checkers re-derive facts independently of the artifact's own ``check()``
helpers wherever possible, so a bug in construction-time validation does
not blind the audit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.map.lifecycle import LifecycleTracker, NodeState, _LEGAL
from repro.map.netlist import MappedNetwork, Net
from repro.network.network import Network
from repro.network.subject import SubjectGraph, SubjectNode, SubjectNodeType
from repro.place.detailed import DetailedPlacement
from repro.timing.model import WireCapModel, net_wire_capacitance
from repro.timing.sta import TimingReport, slacks
from repro.verify.result import CheckResult

__all__ = [
    "check_network",
    "check_subject",
    "check_mapped",
    "check_cone_partition",
    "check_cut_cover",
    "check_lifecycle",
    "check_placement",
    "check_timing",
    "check_incremental_sta",
]

#: Absolute tolerance for floating-point geometric/timing comparisons.
EPS = 1e-6


def _result(name: str, target: str, problems: List[str],
            t0: float) -> CheckResult:
    """Fold a problem list into one result (first findings shown)."""
    details = "; ".join(problems[:3])
    if len(problems) > 3:
        details += f" (+{len(problems) - 3} more)"
    return CheckResult(name, target, not problems, details,
                       time.perf_counter() - t0)


def _acyclic(net, name: str, target: str) -> CheckResult:
    """Shared acyclicity probe via the artifact's topological sort."""
    t0 = time.perf_counter()
    problems: List[str] = []
    try:
        net.topological_order()
    except ValueError as exc:
        problems.append(str(exc))
    return _result(name, target, problems, t0)


def _link_problems(nodes) -> List[str]:
    """Fanin/fanout backlink symmetry with multi-edge counts."""
    problems = []
    for node in nodes:
        for f in set(id(x) for x in node.fanins):
            fanin = next(x for x in node.fanins if id(x) == f)
            uses = sum(1 for x in node.fanins if x is fanin)
            backs = sum(1 for x in fanin.fanouts if x is node)
            if uses != backs:
                problems.append(
                    f"{node.name}: {uses} fanin uses of {fanin.name} but "
                    f"{backs} fanout backlinks"
                )
        for g in node.fanouts:
            if not any(x is node for x in g.fanins):
                problems.append(
                    f"{node.name}: fanout {g.name} lacks the fanin link"
                )
    return problems


# -- Boolean network ---------------------------------------------------------


def check_network(net: Network) -> List[CheckResult]:
    """Audit a source :class:`~repro.network.network.Network`."""
    target = net.name
    results = []

    t0 = time.perf_counter()
    problems = []
    for node in net.nodes:
        if node.is_pi and node.fanins:
            problems.append(f"PI {node.name} has fanins")
        if node.is_po and len(node.fanins) != 1:
            problems.append(f"PO {node.name} has {len(node.fanins)} drivers")
    results.append(_result("invariant.network.arity", target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    for node in net.nodes:
        if node.is_internal:
            if node.function is None:
                problems.append(f"{node.name}: internal node without function")
            elif node.function.num_inputs != len(node.fanins):
                problems.append(
                    f"{node.name}: cover width {node.function.num_inputs} "
                    f"!= {len(node.fanins)} fanins"
                )
    results.append(_result("invariant.network.functions", target, problems, t0))

    t0 = time.perf_counter()
    results.append(_result("invariant.network.links", target,
                           _link_problems(net.nodes), t0))
    results.append(_acyclic(net, "invariant.network.acyclic", target))
    return results


# -- subject graph -----------------------------------------------------------

_SUBJECT_ARITY = {
    SubjectNodeType.PRIMARY_INPUT: 0,
    SubjectNodeType.PRIMARY_OUTPUT: 1,
    SubjectNodeType.NAND2: 2,
    SubjectNodeType.INV: 1,
    SubjectNodeType.CONST0: 0,
    SubjectNodeType.CONST1: 0,
}


def check_subject(subject: SubjectGraph) -> List[CheckResult]:
    """Audit a subject graph (the inchoate network N_inchoate)."""
    target = subject.name
    results = []

    t0 = time.perf_counter()
    problems = []
    for node in subject.nodes:
        expected = _SUBJECT_ARITY[node.type]
        if len(node.fanins) != expected:
            problems.append(
                f"{node.name}: {node.type.value} with "
                f"{len(node.fanins)} fanins (expected {expected})"
            )
    results.append(_result("invariant.subject.arity", target, problems, t0))

    t0 = time.perf_counter()
    results.append(_result("invariant.subject.links", target,
                           _link_problems(subject.nodes), t0))
    results.append(_acyclic(subject, "invariant.subject.acyclic", target))

    # Structural hashing: NAND2 fanin pairs and INV fanins are unique.
    t0 = time.perf_counter()
    problems = []
    nand_pairs: Dict[Tuple[int, int], str] = {}
    inv_of: Dict[int, str] = {}
    for node in subject.nodes:
        if node.type is SubjectNodeType.NAND2:
            a, b = node.fanins
            key = (min(a.uid, b.uid), max(a.uid, b.uid))
            if key in nand_pairs:
                problems.append(
                    f"duplicate NAND2 {node.name} / {nand_pairs[key]}"
                )
            nand_pairs[key] = node.name
        elif node.type is SubjectNodeType.INV:
            key1 = node.fanins[0].uid
            if key1 in inv_of:
                problems.append(
                    f"duplicate INV {node.name} / {inv_of[key1]}"
                )
            inv_of[key1] = node.name
    results.append(_result("invariant.subject.strash", target, problems, t0))
    return results


# -- mapped netlist -----------------------------------------------------------


def check_mapped(mapped: MappedNetwork) -> List[CheckResult]:
    """Audit a mapped netlist (library-gate instances)."""
    target = mapped.name
    results = []

    t0 = time.perf_counter()
    problems = []
    for node in mapped.nodes:
        if node.is_gate:
            if node.cell is None:
                problems.append(f"gate {node.name} has no cell")
            elif len(node.fanins) != node.cell.num_inputs:
                problems.append(
                    f"gate {node.name}: {len(node.fanins)} fanins for "
                    f"{node.cell.num_inputs}-input cell {node.cell.name}"
                )
        elif node.is_po and len(node.fanins) != 1:
            problems.append(f"PO {node.name} has {len(node.fanins)} drivers")
        elif (node.is_pi or node.is_constant) and node.fanins:
            problems.append(f"{node.kind.value} {node.name} has fanins")
    results.append(_result("invariant.mapped.arity", target, problems, t0))

    t0 = time.perf_counter()
    results.append(_result("invariant.mapped.links", target,
                           _link_problems(mapped.nodes), t0))
    results.append(_acyclic(mapped, "invariant.mapped.acyclic", target))
    return results


# -- cone partition -----------------------------------------------------------


def check_cone_partition(
    subject: SubjectGraph,
    cones: Optional[Sequence[Tuple[SubjectNode, Set[SubjectNode]]]] = None,
) -> List[CheckResult]:
    """Audit the per-output cone partition of Section 3.5.

    Each cone K_i must be exactly the gate subset of its output's
    transitive fanin (recomputed here with an independent traversal), and
    the cones must jointly cover every live gate of the subject graph.
    Without ``cones``, each output's cone is built by
    :meth:`~repro.network.subject.SubjectGraph.cone_nodes`, checked and
    dropped in turn, so the audit never holds every cone's gate set.
    """
    target = subject.name
    t0 = time.perf_counter()
    problems: List[str] = []
    if cones is not None:
        cone_by_po = {po.uid: cone for po, cone in cones}
        po_uids = {po.uid for po in subject.primary_outputs}
        for po, _cone in cones:
            if po.uid not in po_uids:
                problems.append(
                    f"cone root {po.name} is not a primary output")
    covered: Set[int] = set()
    for po in subject.primary_outputs:
        if cones is None:
            cone = subject.cone_nodes(po)
        else:
            cone = cone_by_po.get(po.uid)
            if cone is None:
                problems.append(f"output {po.name} has no cone")
                continue
        # Independent traversal (not graph.cone_nodes / transitive_fanin).
        expected: Set[int] = set()
        stack = [po]
        seen = {po.uid}
        while stack:
            node = stack.pop()
            if node.is_gate:
                expected.add(node.uid)
            for f in node.fanins:
                if f.uid not in seen:
                    seen.add(f.uid)
                    stack.append(f)
        actual = {n.uid for n in cone}
        if actual != expected:
            extra = len(actual - expected)
            missing = len(expected - actual)
            problems.append(
                f"cone of {po.name}: {missing} gates missing, "
                f"{extra} foreign gates"
            )
        covered.update(actual)
    live = {
        n.uid
        for n in subject.transitive_fanin(subject.primary_outputs)
        if n.is_gate
    }
    uncovered = live - covered
    if uncovered:
        problems.append(f"{len(uncovered)} live gates in no cone")
    return [_result("invariant.cones.partition", target, problems, t0)]


# -- cut cover ---------------------------------------------------------------


def check_cut_cover(subject: SubjectGraph, mapped: MappedNetwork,
                    cover: Sequence) -> List[CheckResult]:
    """Audit a cut mapper's committed cover records.

    Every :class:`~repro.map.cuts.CutCoverRecord` must name an existing
    instance of the recorded cell, and the cell — wired through the
    record's pin assignment and negations — must realise *exactly* the
    cut function, which is re-derived here from the subject graph.  This
    proves the NPN match table and the commit wiring agree cone by cone,
    independently of the end-to-end equivalence checks.
    """
    from repro.match.boolmatch import cut_function

    target = subject.name
    t0 = time.perf_counter()
    problems: List[str] = []
    nodes = {n.uid: n for n in subject.nodes}
    for record in cover:
        if record.instance not in mapped:
            problems.append(
                f"cut record names missing instance {record.instance}")
            continue
        instance = mapped[record.instance]
        if instance.cell is None or instance.cell.name != record.cell:
            problems.append(
                f"cut record {record.instance}: expected cell "
                f"{record.cell}, instance carries "
                f"{instance.cell.name if instance.cell else None}")
            continue
        root = nodes.get(record.root)
        leaves = [nodes.get(uid) for uid in record.leaves]
        if root is None or any(leaf is None for leaf in leaves):
            problems.append(
                f"cut record {record.instance}: unknown subject uids")
            continue
        n = instance.cell.num_inputs
        if (len(leaves) != n or len(record.leaf_of_pin) != n
                or len(record.pin_negated) != n):
            problems.append(
                f"cut record {record.instance}: binding width mismatch "
                f"({len(leaves)} leaves for {n}-input {record.cell})")
            continue
        tt = cut_function(root, leaves)
        if tt is None:
            problems.append(
                f"cut record {record.instance}: leaves are not a cut "
                f"of {root.name}")
            continue
        cell_bits = instance.cell.truth_table.bits
        bits = 0
        for m in range(1 << n):
            pins = 0
            for pin in range(n):
                value = (m >> record.leaf_of_pin[pin]) & 1
                if record.pin_negated[pin]:
                    value ^= 1
                if value:
                    pins |= 1 << pin
            value = (cell_bits >> pins) & 1
            if record.output_negated:
                value ^= 1
            if value:
                bits |= 1 << m
        if bits != tt.bits:
            problems.append(
                f"cut record {record.instance}: bound {record.cell} "
                f"realises {bits:#x}, cut function of {root.name} "
                f"is {tt.bits:#x}")
    return [_result("invariant.map.cut_cover", target, problems, t0)]


# -- lifecycle ---------------------------------------------------------------


def check_lifecycle(
    lifecycle: LifecycleTracker, subject: SubjectGraph
) -> List[CheckResult]:
    """Audit the egg/nestling/dove/hawk history against Figure 2.2.

    The recorded transition history is replayed from scratch: every step
    must be one of the legal transitions, the replayed final states must
    match the tracker's, the reincarnation counter must equal the number
    of dove→egg steps, and every live gate must finish as hawk or dove.
    """
    target = subject.name
    results = []

    t0 = time.perf_counter()
    problems = []
    replayed: Dict[int, NodeState] = {}
    reincarnations = 0
    for uid, frm, to in lifecycle.history:
        current = replayed.get(uid, NodeState.EGG)
        if current is not frm:
            problems.append(
                f"uid {uid}: history claims {frm.value} but replay "
                f"is at {current.value}"
            )
        if (frm, to) not in _LEGAL:
            problems.append(
                f"uid {uid}: illegal transition {frm.value} -> {to.value}"
            )
        if frm is NodeState.DOVE and to is NodeState.EGG:
            reincarnations += 1
        replayed[uid] = to
    for uid, state in replayed.items():
        tracked = lifecycle._state.get(uid, NodeState.EGG)
        if tracked is not state:
            problems.append(
                f"uid {uid}: tracker says {tracked.value}, history "
                f"replays to {state.value}"
            )
    if reincarnations != lifecycle.reincarnations:
        problems.append(
            f"reincarnation counter {lifecycle.reincarnations} != "
            f"{reincarnations} dove->egg steps in history"
        )
    results.append(_result("invariant.lifecycle.transitions",
                           target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    for node in subject.transitive_fanin(subject.primary_outputs):
        if not node.is_gate:
            continue
        state = lifecycle.state(node)
        if state not in (NodeState.HAWK, NodeState.DOVE):
            problems.append(f"live gate {node.name} ended as {state.value}")
    results.append(_result("invariant.lifecycle.final",
                           target, problems, t0))
    return results


# -- placement ---------------------------------------------------------------


def check_placement(
    mapped: MappedNetwork, placement: DetailedPlacement
) -> List[CheckResult]:
    """Audit a detailed placement against its mapped netlist."""
    target = mapped.name
    results = []
    gate_names = {g.name for g in mapped.gates}

    t0 = time.perf_counter()
    problems = []
    in_rows: Dict[str, int] = {}
    for row in placement.rows:
        for cell in row.cells:
            in_rows[cell] = in_rows.get(cell, 0) + 1
    for name in gate_names:
        if name not in placement.positions:
            problems.append(f"gate {name} has no position")
        if in_rows.get(name, 0) != 1:
            problems.append(
                f"gate {name} appears in {in_rows.get(name, 0)} rows"
            )
    for cell in in_rows:
        if cell not in gate_names:
            problems.append(f"row cell {cell} is not a netlist gate")
    results.append(_result("invariant.place.coverage", target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    for row in placement.rows:
        spans = []
        for cell in row.cells:
            span = row.x_spans.get(cell)
            if span is None:
                problems.append(f"row {row.index}: {cell} has no x span")
                continue
            lo, hi = span
            if hi < lo - EPS:
                problems.append(f"row {row.index}: {cell} span reversed")
            spans.append((lo, hi, cell))
        spans.sort()
        for (lo1, hi1, c1), (lo2, hi2, c2) in zip(spans, spans[1:]):
            if hi1 > lo2 + EPS:
                problems.append(
                    f"row {row.index}: {c1} and {c2} overlap "
                    f"({hi1:.2f} > {lo2:.2f})"
                )
    results.append(_result("invariant.place.overlap", target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    for row in placement.rows:
        for cell in row.cells:
            pos = placement.positions.get(cell)
            span = row.x_spans.get(cell)
            if pos is None or span is None:
                continue  # already reported by coverage / overlap
            lo, hi = span
            if abs(pos.x - (lo + hi) / 2.0) > EPS:
                problems.append(
                    f"{cell}: position x {pos.x:.2f} is not the span "
                    f"midpoint {(lo + hi) / 2.0:.2f}"
                )
            if abs(pos.y - row.y_center) > EPS:
                problems.append(
                    f"{cell}: position y {pos.y:.2f} != row {row.index} "
                    f"center {row.y_center:.2f}"
                )
    results.append(_result("invariant.place.geometry", target, problems, t0))
    return results


# -- timing ------------------------------------------------------------------


def check_timing(
    mapped: MappedNetwork,
    report: TimingReport,
    wire_model: Optional[WireCapModel] = None,
    pad_cap: float = 0.25,
) -> List[CheckResult]:
    """Audit an STA report against its (placed) mapped netlist.

    When ``wire_model`` is given (the model the STA ran with), gate loads
    are recomputed from :meth:`MappedNetwork.nets` (each sink pin's
    capacitance once, ``pad_cap`` per output pad) plus the routed wire
    model and compared against the report.
    """
    target = mapped.name
    results = []

    t0 = time.perf_counter()
    problems = []
    for name, load in report.loads.items():
        if load < -EPS:
            problems.append(f"{name}: negative load {load:.4f}")
    if wire_model is not None:
        nets = {net.name: net for net in mapped.nets()}
        for node in mapped.nodes:
            if not node.is_gate or node.name not in report.loads:
                continue
            net = nets.get(node.name) or Net(node)
            expected = sum(
                pad_cap if sink.is_po else sink.input_pin_cap(pin)
                for sink, pin in net.sinks
            )
            expected += net_wire_capacitance(net.pin_positions(), wire_model)
            got = report.loads[node.name]
            if abs(got - expected) > max(EPS, 1e-6 * abs(expected)):
                problems.append(
                    f"{node.name}: load {got:.6f} != recomputed "
                    f"{expected:.6f}"
                )
    results.append(_result("invariant.timing.loads", target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    for node in mapped.nodes:
        t = report.arrivals.get(node.name)
        if t is None:
            problems.append(f"{node.name}: no arrival time")
            continue
        for fanin in node.fanins:
            t_in = report.arrivals.get(fanin.name)
            if t_in is not None and t.worst < t_in.worst - EPS:
                problems.append(
                    f"{node.name}: arrival {t.worst:.4f} earlier than "
                    f"fanin {fanin.name} at {t_in.worst:.4f}"
                )
    results.append(_result("invariant.timing.monotone", target, problems, t0))

    t0 = time.perf_counter()
    problems = []
    po_arrivals = [
        report.arrivals[po.name].worst
        for po in mapped.primary_outputs
        if po.name in report.arrivals
    ]
    if po_arrivals:
        worst = max(po_arrivals)
        if abs(worst - report.critical_delay) > EPS:
            problems.append(
                f"critical delay {report.critical_delay:.4f} != worst "
                f"output arrival {worst:.4f}"
            )
        slack = {
            name: value
            for name, value in _safe_slacks(mapped, report).items()
        }
        negative = [n for n, s in slack.items() if s < -EPS]
        if negative:
            problems.append(
                f"{len(negative)} nodes with negative slack at the "
                f"critical-delay deadline (e.g. {negative[0]})"
            )
        if slack and min(slack.values()) > EPS:
            problems.append(
                "no zero-slack node: critical path inconsistent with "
                "required times"
            )
    results.append(_result("invariant.timing.slack", target, problems, t0))
    return results


def check_incremental_sta(
    mapped: MappedNetwork,
    wire_model: Optional[WireCapModel] = None,
    trials: int = 1,
    moves_per_trial: int = 8,
    seed: int = 0,
) -> List[CheckResult]:
    """Audit the incremental timing engine against full recomputation.

    Perturbs ``moves_per_trial`` random gate positions per trial, pushes
    each move through :class:`~repro.timing.incremental.IncrementalTiming`,
    and demands the live report match a from-scratch
    :func:`~repro.timing.sta.analyze` **bitwise** — arrivals, loads,
    critical output and critical delay — and the engine's required times
    match :func:`~repro.timing.sta.required_times` of that fresh pass (see
    :meth:`~repro.timing.incremental.IncrementalTiming.check_against_full`).
    Required times are primed at the initial critical delay and compared
    at that same deadline, so each trial's comparison reads the engine's
    backward frontier, not a full backward pass.  The positions and
    ``node.arrival`` values it found are restored before returning, so
    the audit leaves the netlist exactly as it found it.
    """
    import random

    from repro.geometry import Point
    from repro.timing.incremental import IncrementalTiming

    target = mapped.name
    t0 = time.perf_counter()
    problems: List[str] = []
    gates = [node for node in mapped.nodes if node.is_gate]
    placed = [g for g in gates if g.position is not None]
    if not placed:
        return [_result("invariant.timing.incremental", target, [], t0)]
    saved = {g.name: g.position for g in placed}
    arrivals = [(node, node.arrival) for node in mapped.nodes]
    rng = random.Random(seed)
    try:
        engine = IncrementalTiming(mapped, wire_model=wire_model)
        deadline = engine.report.critical_delay
        engine.required(deadline)
        for trial in range(trials):
            for _ in range(moves_per_trial):
                gate = placed[rng.randrange(len(placed))]
                p = gate.position
                engine.set_position(
                    gate.name,
                    Point(
                        p.x + rng.uniform(-4.0, 4.0),
                        p.y + rng.uniform(-4.0, 4.0),
                    ),
                )
            for problem in engine.check_against_full(deadline):
                problems.append(f"trial {trial}: {problem}")
            if problems:
                break
    except Exception as exc:  # engine crash must not kill the audit
        problems.append(f"incremental engine aborted: {exc}")
    finally:
        for name, position in saved.items():
            mapped[name].position = position
        for node, arrival in arrivals:
            node.arrival = arrival
    return [_result("invariant.timing.incremental", target, problems, t0)]


def _safe_slacks(mapped: MappedNetwork,
                 report: TimingReport) -> Dict[str, float]:
    """Per-node slack at the default deadline; empty on missing data."""
    try:
        return slacks(mapped, report)
    except Exception:  # corrupt artifacts must not kill the audit
        return {}
