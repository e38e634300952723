"""Cut-based covering: the DAG-mapping alternative to tree matching.

The tree matcher behind :class:`~repro.map.base.BaseMapper` only finds a
cell where the subject graph happens to be decomposed in one of the cell's
pattern shapes.  This module implements the other classical paradigm:

1. **Priority-cut enumeration** (Kulkarni & Vrudhula) — every gate node
   gets a bounded, deterministically ordered set of k-feasible cuts
   (:func:`enumerate_priority_cuts`).  The direct-fanin cut is always
   retained so a library with an inverter and a NAND2 can cover any graph.
2. **NPN boolean matching** — each cut's function is computed once per
   graph as an integer truth table (:func:`cut_functions`) and looked up
   in a precomputed expansion table of the library (:class:`NpnMatchTable`):
   for every cell up to :data:`NPN_FULL_WIDTH` inputs, *all* NPN variants
   of its function are tabulated once per library, so matching a cut is a
   single dict probe instead of a canonical-form search.  Wider cells
   (5-6 inputs) are expanded under permutation + output polarity only,
   which keeps the one-time build sub-second.  Input/output negations are
   realised by inserting library inverters at commit time (deduplicated
   per driven signal) and priced into the DP cost.
3. **DP covering** (:class:`CutMapper`) — the tree mapper's covering
   driver (:class:`~repro.map.base.BaseMapper`: cone loop, DP step,
   cross-cone solution reuse, egg/nestling/hawk/dove commit and
   :class:`~repro.map.base.MapResult` contract) with (cut, binding)
   candidates, so placement, routing, STA, serve and verify run
   unchanged.  ``mode="area"`` minimises cell area, ``mode="timing"``
   minimises arrival under the MIS constant-load model of
   :mod:`repro.map.mis`.
4. **LUT-k mode** — ``lut_k=K`` covers with generated k-input LUT cells
   (:func:`lut_cell`) instead of library gates: the classic FPGA mapping
   workload, where every cut function is implementable and the objective
   degenerates to LUT count.
5. **Fusion** (:class:`FusionMapper`) — runs the tree mapper *and* the
   cut mapper on the same subject graph, assembles the better cover of
   each output cone, and returns that assembly unless one backend's
   whole cover is strictly better under the selected objective.

Everything is deterministic: cuts, bindings and tie-breaks are ordered by
explicit keys, so two processes mapping the same graph produce bit-stable
covers (the differential property fleet asserts this).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.library.cell import Cell, Library, Pin, PinTiming
from repro.map.base import BaseMapper, MapResult
from repro.map.lifecycle import LifecycleTracker
from repro.map.mis import (
    DEFAULT_PAD_CAP,
    DEFAULT_WIRE_CAP_PER_FANOUT,
    MisAreaMapper,
    MisDelayMapper,
    _typical_input_cap,
    estimated_load,
)
from repro.map.netlist import MappedNetwork, MappedNode
from repro.network.logic import TruthTable
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS

__all__ = [
    "CutError",
    "MapperSpecError",
    "MapperSpec",
    "parse_mapper_spec",
    "enumerate_priority_cuts",
    "CutFunction",
    "cut_truth",
    "has_vacuous_leaf",
    "cut_functions",
    "NpnBinding",
    "NpnMatchTable",
    "match_table_for",
    "lut_cell",
    "CutSolution",
    "CutCoverRecord",
    "CutMapResult",
    "CutMapper",
    "FusionChoice",
    "FusionMapResult",
    "FusionMapper",
    "DEFAULT_PRIORITY_CUTS",
    "NPN_FULL_WIDTH",
    "MAX_CUT_K",
    "MAPPER_KINDS",
]

#: Non-trivial cuts retained per node (the priority-cut bound).
DEFAULT_PRIORITY_CUTS = 8
#: Widest cut any mapper configuration may request.
MAX_CUT_K = 6
#: Cells up to this many inputs get the full NPN expansion; wider cells
#: are expanded under permutation + output polarity only (the input-phase
#: axis would cost 2^n more table entries for little coverage gain).
NPN_FULL_WIDTH = 4
#: The mapper kinds ``--mapper`` accepts (``lut`` takes a ``:K`` suffix).
MAPPER_KINDS = ("tree", "cuts", "fusion", "lut")

#: Area of one generated LUT cell (constant, so LUT-mode area cost is a
#: scaled LUT count — the classic FPGA objective).
LUT_AREA = 464.0
#: Input capacitance of every generated LUT pin, pF.
LUT_PIN_CAP = 1.0
#: Intrinsic delay / drive resistance of every generated LUT pin.
LUT_BLOCK = 1.0
LUT_RESISTANCE = 0.2


class CutError(RuntimeError):
    """Raised when cut enumeration meets a malformed subject graph."""


class MapperSpecError(ValueError):
    """Raised on a malformed ``--mapper`` specification string."""


@dataclass(frozen=True)
class MapperSpec:
    """A parsed mapper selection (see :func:`parse_mapper_spec`)."""

    kind: str  # "tree" | "cuts" | "fusion" | "lut"
    lut_k: Optional[int] = None

    @property
    def canonical(self) -> str:
        """The canonical spec string (round-trips through the parser)."""
        if self.kind == "lut":
            return f"lut:{self.lut_k}"
        return self.kind


def parse_mapper_spec(spec: str) -> MapperSpec:
    """Parse a ``--mapper`` string: ``tree``, ``cuts``, ``fusion``, ``lut:K``.

    Raises :class:`MapperSpecError` with a contextual message on anything
    else (the fuzz corpus pins these messages).
    """
    if not isinstance(spec, str):
        raise MapperSpecError(
            f"mapper spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text in ("tree", "cuts", "fusion"):
        return MapperSpec(text)
    if text == "lut" or text.startswith("lut:"):
        suffix = text[4:] if text.startswith("lut:") else ""
        if not suffix:
            raise MapperSpecError(
                f"mapper {spec!r}: lut mode needs a width, e.g. 'lut:4'")
        try:
            k = int(suffix)
        except ValueError:
            raise MapperSpecError(
                f"mapper {spec!r}: lut width {suffix!r} is not an integer")
        if not 2 <= k <= MAX_CUT_K:
            raise MapperSpecError(
                f"mapper {spec!r}: lut width must be in 2..{MAX_CUT_K}, "
                f"got {k}")
        return MapperSpec("lut", k)
    raise MapperSpecError(
        f"unknown mapper: {spec!r} (expected tree|cuts|fusion|lut:K)")


# -- priority-cut enumeration -------------------------------------------------


def _cut_priority(cut: FrozenSet[SubjectNode]) -> Tuple[int, List[int]]:
    """Deterministic cut ordering: fewer leaves first, then leaf uids."""
    return (len(cut), sorted(n.uid for n in cut))


def enumerate_priority_cuts(
    graph: SubjectGraph,
    k: int,
    cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
) -> Dict[int, List[Tuple[SubjectNode, ...]]]:
    """Bounded k-feasible cut sets per gate node, deterministically ordered.

    Standard bottom-up enumeration: a cut of a node is the union of one
    cut from each fanin (the fanin's trivial cut contributes the fanin
    itself).  Each node keeps the ``cuts_per_node`` best cuts under
    :func:`_cut_priority`; the direct-fanin cut is *always* retained so
    the covering DP can fall back on the library's NAND2/inverter.  Cuts
    are returned as uid-sorted node tuples (trivial cuts excluded), so
    the result is bit-stable across processes.  A gate's frozenset cuts,
    which its gate fanouts merge, are released once the last of them has
    read them, as the tree matcher releases its tables.

    Raises :class:`CutError` on a cyclic subject graph (a gate consumed
    before it can be enumerated) instead of looping or silently skipping.
    """
    if k < 1:
        raise CutError(f"cut width must be positive, got {k}")
    table: Dict[int, List[FrozenSet[SubjectNode]]] = {}
    #: Gate uid -> reads its gate fanouts still have to make of its cuts.
    readers: Dict[int, int] = {}
    result: Dict[int, List[Tuple[SubjectNode, ...]]] = {}
    for node in graph.topological_order():
        if node.is_po:
            continue
        if not node.is_gate:
            table[node.uid] = [frozenset([node])]
            continue
        fanin_cut_lists = []
        for fanin in node.fanins:
            cuts = table.get(fanin.uid)
            if cuts is None:
                if fanin.is_gate:
                    raise CutError(
                        f"cyclic subject graph: {node.name!r} consumes gate "
                        f"{fanin.name!r} before it was enumerated")
                cuts = [frozenset([fanin])]
                table[fanin.uid] = cuts
            fanin_cut_lists.append(cuts)
            left_to_read = readers.get(fanin.uid)
            if left_to_read == 1:
                del readers[fanin.uid], table[fanin.uid]
            elif left_to_read is not None:
                readers[fanin.uid] = left_to_read - 1
        merged: Set[FrozenSet[SubjectNode]] = set()
        for combo in itertools.product(*fanin_cut_lists):
            union: FrozenSet[SubjectNode] = frozenset().union(*combo)
            if len(union) <= k:
                merged.add(union)
        if 0 < cuts_per_node < len(merged):
            # Only cuts no larger than the bound-th smallest can be kept;
            # skip building priority keys for the rest.
            limit = sorted(map(len, merged))[cuts_per_node - 1]
            merged = {cut for cut in merged if len(cut) <= limit}
        ordered = sorted(merged, key=_cut_priority)[:cuts_per_node]
        direct = frozenset(node.fanins)
        if len(direct) <= k and direct not in ordered:
            ordered.append(direct)
        fanouts = sum(1 for h in node.fanouts if h.is_gate)
        if fanouts:
            table[node.uid] = [frozenset([node])] + ordered
            readers[node.uid] = fanouts
        result[node.uid] = [
            tuple(sorted(cut, key=lambda n: n.uid)) for cut in ordered
        ]
    return result


# -- cut functions ------------------------------------------------------------


@dataclass(frozen=True)
class CutFunction:
    """One retained cut of a node, with its function computed once.

    :attr:`bits` is the truth table of the root over :attr:`leaves` (leaf
    ``i`` is variable ``i``, as in :func:`repro.match.boolmatch.cut_function`);
    :attr:`interior` holds the cone between the leaves and the root in
    fanin-first order, root last; :attr:`vacuous` is true when some leaf
    is outside the function's support, so a smaller cut covers the same
    function.
    """

    leaves: Tuple[SubjectNode, ...]
    bits: int
    vacuous: bool
    interior: Tuple[SubjectNode, ...]


@functools.lru_cache(maxsize=None)
def _variable_masks(n: int) -> Tuple[int, ...]:
    """Truth-table bits of the projections ``x_0 .. x_{n-1}`` over ``n``."""
    return tuple(sum(1 << m for m in range(1 << n) if (m >> i) & 1)
                 for i in range(n))


def cut_truth(
    root: SubjectNode, leaves: Sequence[SubjectNode]
) -> Optional[Tuple[int, List[SubjectNode]]]:
    """``(bits, interior)`` of ``root`` over the ordered cut ``leaves``.

    One post-order walk of the cut's cone with integer masks.  Tables are
    never composed from the fanins' own cut tables: on a reconvergent cut
    a leaf can sit inside another fanin's sub-cut cone, and the stretched
    fanin tables then disagree with the cone's real function.  Returns
    ``None`` when a path from the root reaches a primary input or
    constant that is not a leaf (not a cut).
    """
    n = len(leaves)
    full = (1 << (1 << n)) - 1
    value = {leaf.uid: mask
             for leaf, mask in zip(leaves, _variable_masks(n))}
    interior: List[SubjectNode] = []
    stack = [root]
    while stack:
        node = stack[-1]
        if node.uid in value:
            stack.pop()
            continue
        fanins = node.fanins
        if not fanins:
            return None  # a primary input or constant outside the cut
        a = value.get(fanins[0].uid)
        if len(fanins) == 1:  # inverter
            if a is None:
                stack.append(fanins[0])
                continue
            value[node.uid] = full ^ a
        else:  # nand2
            b = value.get(fanins[1].uid)
            if a is None or b is None:
                if a is None:
                    stack.append(fanins[0])
                if b is None:
                    stack.append(fanins[1])
                continue
            value[node.uid] = full ^ (a & b)
        stack.pop()
        interior.append(node)
    return value[root.uid], interior


def has_vacuous_leaf(bits: int, n: int) -> bool:
    """Whether the ``n``-input table ``bits`` ignores one of its inputs.

    Variable ``i`` is in the support exactly when the cofactors differ:
    the bits where ``x_i = 1``, shifted down onto the ``x_i = 0`` bits,
    differ from the ``x_i = 0`` bits.
    """
    full = (1 << (1 << n)) - 1
    for i, mask in enumerate(_variable_masks(n)):
        if (bits & mask) >> (1 << i) == bits & (full ^ mask):
            return True
    return False


def cut_functions(
    graph: SubjectGraph,
    cuts: Dict[int, List[Tuple[SubjectNode, ...]]],
) -> Dict[int, List[CutFunction]]:
    """The :class:`CutFunction` of every retained cut, per gate uid.

    ``cuts`` is :func:`enumerate_priority_cuts` output; cut order is kept.
    """
    table: Dict[int, List[CutFunction]] = {}
    for node in graph.gates:
        functions = []
        for leaves in cuts.get(node.uid, ()):
            walked = cut_truth(node, leaves)
            if walked is None:
                continue
            bits, interior = walked
            functions.append(CutFunction(
                leaves, bits, has_vacuous_leaf(bits, len(leaves)),
                tuple(interior)))
        table[node.uid] = functions
        if OBS.enabled:
            OBS.metrics.counter("cut.functions_computed").inc(len(functions))
    return table


# -- NPN library expansion ----------------------------------------------------


@dataclass(frozen=True)
class NpnBinding:
    """How one cell implements one cut function.

    Pin ``i`` of :attr:`cell` reads cut leaf :attr:`leaf_of_pin` ``[i]``
    (leaves in uid order), inverted when :attr:`pin_negated` ``[i]``; the
    cell output is additionally inverted when :attr:`output_negated`.
    """

    cell: Cell
    leaf_of_pin: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool

    def inverter_count(self) -> int:
        """Inverters the binding needs (negated leaves deduplicated)."""
        negated_leaves = {
            leaf for leaf, neg in zip(self.leaf_of_pin, self.pin_negated)
            if neg
        }
        return len(negated_leaves) + (1 if self.output_negated else 0)

    def realized_bits(self) -> int:
        """Truth-table bits of the function the bound cell realises."""
        n = self.cell.num_inputs
        cell_bits = self.cell.truth_table.bits
        bits = 0
        for m in range(1 << n):
            y = 0
            for pin in range(n):
                value = (m >> self.leaf_of_pin[pin]) & 1
                if self.pin_negated[pin]:
                    value ^= 1
                if value:
                    y |= 1 << pin
            value = (cell_bits >> y) & 1
            if self.output_negated:
                value ^= 1
            if value:
                bits |= 1 << m
        return bits


class NpnMatchTable:
    """Per-library table: cut function -> cell bindings realising it.

    Built once per ``(library, k)`` (see :func:`match_table_for`): every
    cell with at most ``k`` inputs is expanded over input permutations,
    output polarity and — up to :data:`NPN_FULL_WIDTH` inputs — input
    polarities.  Lookup is then an O(1) probe keyed on the cut function's
    ``(num_inputs, bits)``.  Each cell contributes at most one binding
    per function (the fewest-inverter variant, ties broken by phase and
    permutation order), and binding lists are sorted by cell area then
    name, so matching is deterministic.
    """

    def __init__(self, library: Library, k: int,
                 full_width: int = NPN_FULL_WIDTH) -> None:
        self.library = library
        self.k = k
        self.full_width = full_width
        self._table: Dict[Tuple[int, int], List[NpnBinding]] = {}
        for cell in library:
            if cell.num_inputs <= k:
                self._expand_cell(cell)
        for bindings in self._table.values():
            bindings.sort(key=lambda b: (b.cell.area, b.cell.name))

    def _expand_cell(self, cell: Cell) -> None:
        n = cell.num_inputs
        full = n <= self.full_width
        phase_space = range(1 << n) if full else (0,)
        best_for_cell: Dict[int, Tuple[tuple, NpnBinding]] = {}
        for output_negated in (False, True):
            for phase_bits in phase_space:
                phases = tuple(
                    (phase_bits >> i) & 1 == 1 for i in range(n))
                phased = cell.truth_table.with_phases(phases, output_negated)
                for perm in itertools.permutations(range(n)):
                    bits = phased.permuted(perm).bits
                    leaf_of_pin = [0] * n
                    for j, old in enumerate(perm):
                        leaf_of_pin[old] = j
                    binding = NpnBinding(
                        cell, tuple(leaf_of_pin), phases, output_negated)
                    rank = (binding.inverter_count(), output_negated,
                            phase_bits, perm)
                    kept = best_for_cell.get(bits)
                    if kept is None or rank < kept[0]:
                        best_for_cell[bits] = (rank, binding)
        for bits, (_, binding) in best_for_cell.items():
            self._table.setdefault((n, bits), []).append(binding)

    def lookup(self, tt: TruthTable) -> List[NpnBinding]:
        """Bindings realising ``tt`` exactly (possibly empty)."""
        return self.lookup_bits(tt.num_inputs, tt.bits)

    def lookup_bits(self, num_inputs: int, bits: int) -> List[NpnBinding]:
        """Bindings realising the ``num_inputs``-input table ``bits``."""
        return self._table.get((num_inputs, bits), [])

    def __len__(self) -> int:
        return len(self._table)


_MATCH_TABLE_CACHE: Dict[Tuple[int, int], NpnMatchTable] = {}


def match_table_for(library: Library, k: int) -> NpnMatchTable:
    """Memoised :class:`NpnMatchTable` (libraries are long-lived)."""
    key = (id(library), k)
    cached = _MATCH_TABLE_CACHE.get(key)
    if cached is None or cached.library is not library:
        cached = NpnMatchTable(library, k)
        _MATCH_TABLE_CACHE[key] = cached
    return cached


# -- generated LUT cells ------------------------------------------------------

_LUT_CELL_CACHE: Dict[Tuple[int, int], Cell] = {}


def lut_cell(num_inputs: int, bits: int) -> Cell:
    """The generic LUT cell computing ``TruthTable(num_inputs, bits)``.

    Cells are cached by ``(num_inputs, bits)`` and named
    ``lut<width>_<bits-hex>``, so LUT-mode netlists are deterministic and
    serialisable without a library.  Every pin carries the same uniform
    capacitance and timing (an FPGA LUT's delay is input-independent to
    first order); the function must depend on every input (cut functions
    are matched post-support-shrink, which guarantees this).
    """
    key = (num_inputs, bits)
    cached = _LUT_CELL_CACHE.get(key)
    if cached is not None:
        return cached
    tt = TruthTable(num_inputs, bits)
    pins = [
        Pin(f"i{j}", LUT_PIN_CAP, PinTiming.uniform(LUT_BLOCK, LUT_RESISTANCE))
        for j in range(num_inputs)
    ]
    terms = []
    for cube in tt.to_sop().cubes:
        literals = []
        for j, lit in enumerate(cube.mask):
            if lit == "1":
                literals.append(f"i{j}")
            elif lit == "0":
                literals.append(f"!i{j}")
        terms.append("*".join(literals))
    cell = Cell(f"lut{num_inputs}_{bits:x}", LUT_AREA,
                "+".join(terms), pins)
    if cell.truth_table.bits != bits:  # pragma: no cover - safety net
        raise RuntimeError(f"LUT synthesis mismatch for {cell.name}")
    _LUT_CELL_CACHE[key] = cell
    return cell


# -- the covering DP ----------------------------------------------------------


@dataclass
class CutSolution:
    """The best cut implementation (so far) at a subject node."""

    node: SubjectNode
    leaves: Tuple[SubjectNode, ...]
    binding: Optional[NpnBinding]  # None for leaves and reused hawks
    covered: FrozenSet[SubjectNode]
    cost: float
    area: float = 0.0
    arrival: float = 0.0

    def key(self) -> tuple:
        """Deterministic comparison key (total order over candidates)."""
        if self.binding is None:
            return (self.cost, self.area, "", (), (), False)
        return _candidate_key(self.cost, self.area, self.binding,
                              tuple(n.uid for n in self.leaves))

    @property
    def inputs(self) -> Tuple[SubjectNode, ...]:
        """The cut leaves feeding the chosen gate, in uid order."""
        return self.leaves

    @property
    def inner(self) -> FrozenSet[SubjectNode]:
        """Covered nodes other than the root (they become doves)."""
        return self.covered - {self.node}


def _candidate_key(cost: float, area: float, binding: NpnBinding,
                   leaf_uids: Tuple[int, ...]) -> tuple:
    """:meth:`CutSolution.key` of a (cut, binding) candidate."""
    return (cost, area, binding.cell.name, leaf_uids,
            binding.pin_negated, binding.output_negated)


@dataclass(frozen=True)
class CutCoverRecord:
    """One committed cut match, for the verify cut-cover audit."""

    instance: str  # mapped cell-instance name
    cell: str
    root: int  # subject node uid
    leaves: Tuple[int, ...]  # cut leaf uids in binding order
    leaf_of_pin: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool


@dataclass
class CutMapResult(MapResult):
    """A :class:`~repro.map.base.MapResult` plus the committed cut cover."""

    cut_cover: List[CutCoverRecord] = field(default_factory=list)


class _CutChoice:
    """A usable cut of one node: leaves, interior and priced bindings."""

    __slots__ = ("leaves", "interior", "bindings")

    def __init__(self, leaves: Tuple[SubjectNode, ...],
                 interior: Tuple[SubjectNode, ...],
                 bindings: List[Tuple[NpnBinding, float]]) -> None:
        self.leaves = leaves
        self.interior = interior
        #: ``(binding, cell area + inverter area)`` in table order.
        self.bindings = bindings


class CutMapper(BaseMapper):
    """Priority-cut DAG covering with NPN matching (area/timing/LUT).

    Runs :class:`~repro.map.base.BaseMapper`'s covering driver with
    (cut, binding) candidates: :meth:`prepare` prepares every retained
    cut once per graph (truth table, vacuous-leaf verdict, interior cone
    and NPN bindings), :meth:`best_solution` picks the best candidate at
    a node and :meth:`build_gate` adds its pin and output inverters.

    Args:
        library: target gate library (function table and inverters; its
            cells are ignored in LUT mode).
        mode: ``"area"`` (minimum cell area) or ``"timing"`` (minimum
            arrival under the MIS constant-load model).
        k: cut width; defaults to ``min(library.max_fanin(), MAX_CUT_K)``
            (or ``lut_k`` in LUT mode).
        cuts_per_node: priority-cut bound per node.
        lut_k: cover with generated ``lut_k``-input LUTs instead of
            library cells (FPGA mode).
        wire_cap_per_fanout / pad_cap / input_arrivals: the MIS delay
            model's knobs, as in :class:`~repro.map.mis.MisDelayMapper`.
    """

    COUNTER_PREFIX = "cut"
    #: Cut covers take the cones in declaration order.
    use_cone_ordering = False

    def __init__(
        self,
        library: Library,
        mode: str = "area",
        k: Optional[int] = None,
        cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
        lut_k: Optional[int] = None,
        wire_cap_per_fanout: float = DEFAULT_WIRE_CAP_PER_FANOUT,
        pad_cap: float = DEFAULT_PAD_CAP,
        input_arrivals: Optional[Dict[str, float]] = None,
    ) -> None:
        if mode not in ("area", "timing"):
            raise ValueError(f"unknown mode: {mode!r}")
        if lut_k is not None and not 2 <= lut_k <= MAX_CUT_K:
            raise ValueError(
                f"lut width must be in 2..{MAX_CUT_K}, got {lut_k}")
        self.library = library
        self.mode = mode
        self.lut_k = lut_k
        self.cuts_per_node = cuts_per_node
        if lut_k is not None:
            self.k = lut_k
            self.table: Optional[NpnMatchTable] = None
            self.inverter: Optional[Cell] = None
            self.input_cap = LUT_PIN_CAP
        else:
            self.k = k if k is not None else min(library.max_fanin(),
                                                 MAX_CUT_K)
            self.table = match_table_for(library, self.k)
            self.inverter = library.inverter()
            self.input_cap = _typical_input_cap(library)
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.pad_cap = pad_cap
        self.input_arrivals = dict(input_arrivals or {})
        self._reset()

    def _reset(self, subject: Optional[SubjectGraph] = None) -> None:
        """The driver's per-run state plus the cut cover and its caches."""
        super()._reset(subject)
        self.cut_cover: List[CutCoverRecord] = []
        self._choices: Dict[int, List[_CutChoice]] = {}
        self._inverters: Dict[str, MappedNode] = {}

    # -- main entry ----------------------------------------------------------

    def map(self, subject: SubjectGraph) -> CutMapResult:
        """Cover the subject graph; same contract as ``BaseMapper.map``."""
        order = self._cover(subject)
        return CutMapResult(self.mapped, subject, self.lifecycle, order,
                            cut_cover=list(self.cut_cover))

    # -- the driver's candidate hooks ----------------------------------------

    def prepare(self, subject: SubjectGraph) -> None:
        """Enumerate the priority cuts, then keep the usable cuts of each
        gate (non-vacuous, with at least one binding), each priced once."""
        with OBS.span("cut.enumerate", gates=len(subject.gates)):
            cuts = enumerate_priority_cuts(subject, self.k,
                                           self.cuts_per_node)
        with OBS.span("cut.functions"):
            self._choices = self._prepare_choices(
                cut_functions(subject, cuts))

    def _prepare_choices(
        self, functions: Dict[int, List[CutFunction]]
    ) -> Dict[int, List[_CutChoice]]:
        inverter_area = self.inverter.area if self.inverter else 0.0
        priced_by_function: Dict[Tuple[int, int], list] = {}
        choices: Dict[int, List[_CutChoice]] = {}
        for uid, node_functions in functions.items():
            usable = []
            for f in node_functions:
                if f.vacuous:
                    continue  # a smaller cut covers this function
                n = len(f.leaves)
                priced = priced_by_function.get((n, f.bits))
                if priced is None:
                    if self.lut_k is not None:
                        bindings = [NpnBinding(
                            lut_cell(n, f.bits), tuple(range(n)),
                            tuple([False] * n), False)]
                    else:
                        bindings = self.table.lookup_bits(n, f.bits)
                    priced = [(b, b.cell.area +
                               inverter_area * b.inverter_count())
                              for b in bindings]
                    priced_by_function[(n, f.bits)] = priced
                if priced:
                    usable.append(_CutChoice(f.leaves, f.interior, priced))
            choices[uid] = usable
        return choices

    def best_solution(
        self, node: SubjectNode
    ) -> Tuple[Optional[CutSolution], Iterable[SubjectNode]]:
        """The best (cut, binding) at ``node``, and the leaves of every
        usable cut: the first minimum of :meth:`CutSolution.key`,
        compared without building a solution per candidate."""
        choices = self._choices[node.uid]
        reads = (v for c in choices for v in c.leaves)
        timing = self.mode == "timing"
        load = (estimated_load(node, self.input_cap, self.pad_cap,
                               self.wire_cap_per_fanout)
                if timing else 0.0)
        best_key: Optional[tuple] = None
        best = None
        for choice in choices:
            leaf_solutions = [self.solution_of(leaf) for leaf in choice.leaves]
            leaf_uids = tuple(leaf.uid for leaf in choice.leaves)
            if OBS.enabled:
                OBS.metrics.counter("cut.states_expanded").inc(
                    len(choice.bindings))
            leaf_area = sum(s.area for s in leaf_solutions)
            leaf_cost = 0.0 if timing else sum(s.cost for s in leaf_solutions)
            for binding, impl_area in choice.bindings:
                area = impl_area + leaf_area
                if timing:
                    cost = self._estimated_arrival(binding, leaf_solutions,
                                                   load)
                else:
                    cost = impl_area + leaf_cost
                key = _candidate_key(cost, area, binding, leaf_uids)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (choice, binding, cost, area)
        if best is None:
            return None, reads
        choice, binding, cost, area = best
        return CutSolution(node, choice.leaves, binding,
                           frozenset(choice.interior), cost, area=area,
                           arrival=cost if timing else 0.0), reads

    def _estimated_arrival(
        self,
        binding: NpnBinding,
        leaf_solutions: Sequence[CutSolution],
        load: float,
    ) -> float:
        inv_timing = self.inverter.pins[0].timing if self.inverter else None
        inv_cap = self.inverter.pins[0].input_cap if self.inverter else 0.0
        # An output inverter sits between the cell and the fanouts: the
        # cell then drives only the inverter pin.
        cell_load = inv_cap if binding.output_negated else load
        arrival = 0.0
        for pin_index in range(binding.cell.num_inputs):
            pin = binding.cell.pins[pin_index]
            leaf_arrival = \
                leaf_solutions[binding.leaf_of_pin[pin_index]].arrival
            if binding.pin_negated[pin_index]:
                leaf_arrival += (inv_timing.worst_block +
                                 inv_timing.worst_resistance * pin.input_cap)
            pin_arrival = (leaf_arrival + pin.timing.worst_block +
                           pin.timing.worst_resistance * cell_load)
            if pin_arrival > arrival:
                arrival = pin_arrival
        if binding.output_negated:
            arrival += (inv_timing.worst_block +
                        inv_timing.worst_resistance * load)
        return arrival

    def _leaf_or_hawk(self, node: SubjectNode, arrival: float) -> CutSolution:
        cost = arrival if self.mode == "timing" else 0.0
        return CutSolution(node, (), None, frozenset(), cost, arrival=arrival)

    def leaf_solution(self, node: SubjectNode) -> CutSolution:
        """A primary input arrives at its given time (0 by default)."""
        arrival = self.input_arrivals.get(node.name, 0.0)
        return self._leaf_or_hawk(node, arrival)

    def hawk_solution(self, node: SubjectNode) -> CutSolution:
        """A hawk's output arrives when its committed gate's does."""
        instance = self.instances[node.uid]
        return self._leaf_or_hawk(
            node, instance.arrival if instance.arrival is not None else 0.0)

    # -- cover commitment -----------------------------------------------------

    def _inverted(self, source: MappedNode) -> MappedNode:
        """An inverter instance on ``source``, deduplicated per signal."""
        cached = self._inverters.get(source.name)
        if cached is None:
            self._gate_counter += 1
            cached = self.mapped.add_gate(
                f"{self.inverter.name}_{self._gate_counter}",
                self.inverter, [source])
            cached.arrival = source.arrival
            self._inverters[source.name] = cached
        return cached

    def build_gate(self, node: SubjectNode, solution: CutSolution,
                   fanins: List[MappedNode]) -> MappedNode:
        """Add the bound cell with its pin and output inverters; records
        the match in :attr:`cut_cover`.  ``fanins`` are the leaves'
        instances; returns the output inverter when the binding negates
        the output."""
        binding = solution.binding
        cell = binding.cell
        pins = []
        for pin_index in range(cell.num_inputs):
            source = fanins[binding.leaf_of_pin[pin_index]]
            if binding.pin_negated[pin_index]:
                source = self._inverted(source)
            pins.append(source)
        self._gate_counter += 1
        name = f"{cell.name}_{self._gate_counter}"
        instance = self.mapped.add_gate(name, cell, pins)
        instance.arrival = solution.arrival
        output = instance
        if binding.output_negated:
            output = self._inverted(instance)
            output.arrival = solution.arrival
        self.cut_cover.append(CutCoverRecord(
            instance=name,
            cell=cell.name,
            root=node.uid,
            leaves=tuple(n.uid for n in solution.leaves),
            leaf_of_pin=binding.leaf_of_pin,
            pin_negated=binding.pin_negated,
            output_negated=binding.output_negated,
        ))
        return output


# -- mapping fusion -----------------------------------------------------------


def _provenance(
    mapper: BaseMapper,
) -> Dict[str, Tuple[SubjectNode, FrozenSet[SubjectNode]]]:
    """Output instance name -> (root, inner) of every committed candidate.

    A cut binding that negates its output sits on its output inverter,
    which the fusion copier visits right after the cell it inverts.
    """
    return {mapper.instances[uid].name: (solution.node, solution.inner)
            for uid, solution in mapper.committed.items()}


@dataclass(frozen=True)
class FusionChoice:
    """Which backend won one output cone, and at what cost."""

    output: str
    winner: str  # "tree" | "cuts"
    tree_cost: float
    cut_cost: float


@dataclass
class FusionMapResult(MapResult):
    """The cover fusion returns, plus both source covers.

    :attr:`cover` names the returned cover: ``"fused"`` (the per-cone
    assembly :attr:`choices` describes), ``"tree"`` or ``"cuts"``.
    """

    choices: List[FusionChoice] = field(default_factory=list)
    tree_result: Optional[MapResult] = None
    cut_result: Optional[CutMapResult] = None
    cover: str = "fused"


def _mapped_cone_instances(driver: MappedNode) -> List[MappedNode]:
    """All gate instances in the transitive fanin of ``driver`` (inclusive)."""
    seen: Set[str] = set()
    order: List[MappedNode] = []
    stack = [driver]
    while stack:
        node = stack.pop()
        if node.name in seen or not node.is_gate:
            continue
        seen.add(node.name)
        order.append(node)
        stack.extend(node.fanins)
    return order


def _cone_cost(driver: MappedNode, mode: str) -> float:
    """One mapped cone's standalone cost under the selected objective.

    Area mode sums cell area over the cone's transitive fanin (shared
    gates count fully in every cone, identically for both backends, so
    the comparison is fair); timing mode reads the driver's estimated
    arrival stamped at commit time.
    """
    if mode == "timing":
        if driver.is_gate and driver.arrival is not None:
            return driver.arrival
        return 0.0
    return sum(g.cell.area for g in _mapped_cone_instances(driver))


def _netlist_cost(mapped: MappedNetwork, mode: str) -> float:
    """A whole mapped netlist's cost: total cell area, or in timing mode
    the worst estimated primary-output arrival."""
    if mode == "timing":
        return max((_cone_cost(po.fanins[0], mode)
                    for po in mapped.primary_outputs), default=0.0)
    return mapped.total_cell_area()


class FusionMapper:
    """Best-cover-per-cone fusion of the tree and cut backends.

    Runs :class:`~repro.map.mis.MisAreaMapper` (or the delay variant) and
    :class:`CutMapper` on the same subject graph, then assembles a fused
    netlist by copying, for every primary output, the cone of whichever
    backend scored better under the objective.  The lifecycle history
    is replayed from the copied instances' match provenance, keeping the
    full ``repro.verify`` audit (lifecycle + cone partition + per-cone
    equivalence) applicable unchanged.

    Copied cones stop sharing logic, so the fused cover can lose to its
    own inputs on the whole netlist.  :meth:`map` therefore returns the
    tree or cut cover instead when it is strictly better under
    :func:`_netlist_cost` (total cell area, or the worst estimated
    output arrival); ties keep the fused cover.
    """

    def __init__(
        self,
        library: Library,
        mode: str = "area",
        matcher=None,
        cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
    ) -> None:
        if mode not in ("area", "timing"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.library = library
        self.mode = mode
        tree = MisAreaMapper if mode == "area" else MisDelayMapper
        self.tree_mapper = tree(library, matcher=matcher)
        self.cut_mapper = CutMapper(library, mode=mode,
                                    cuts_per_node=cuts_per_node)

    def map(self, subject: SubjectGraph) -> FusionMapResult:
        """Map with both backends, fuse them per cone, return the best."""
        with OBS.span("fusion.tree"):
            tree_result = self.tree_mapper.map(subject)
        with OBS.span("fusion.cuts"):
            cut_result = self.cut_mapper.map(subject)
        sources = {
            "tree": (tree_result, _provenance(self.tree_mapper), "t"),
            "cuts": (cut_result, _provenance(self.cut_mapper), "c"),
        }
        fused = MappedNetwork(f"{subject.name}_mapped")
        lifecycle = LifecycleTracker()
        for pi in subject.primary_inputs:
            fused.add_primary_input(pi.name)
        copies: Dict[Tuple[str, str], MappedNode] = {}
        constants: Dict[bool, MappedNode] = {}
        choices: List[FusionChoice] = []
        # Tie-break toward the backend with the better whole-netlist cover:
        # mixing sources duplicates logic the cones share, so equal-cost
        # cones should not fragment the cover for nothing.
        tie_winner = ("tree" if tree_result.cell_area <= cut_result.cell_area
                      else "cuts")
        for po in subject.primary_outputs:
            tree_driver = tree_result.mapped[po.name].fanins[0]
            cut_driver = cut_result.mapped[po.name].fanins[0]
            tree_cost = _cone_cost(tree_driver, self.mode)
            cut_cost = _cone_cost(cut_driver, self.mode)
            if tree_cost < cut_cost:
                winner = "tree"
            elif cut_cost < tree_cost:
                winner = "cuts"
            else:
                winner = tie_winner
            result, provenance, tag = sources[winner]
            driver = result.mapped[po.name].fanins[0]
            copy = self._copy_cone(fused, driver, tag, provenance,
                                   copies, constants, lifecycle)
            fused.add_primary_output(po.name, copy)
            choices.append(FusionChoice(po.name, winner, tree_cost, cut_cost))
            if OBS.enabled:
                OBS.metrics.counter(f"fusion.cones_{winner}").inc()
        fused.check()
        live_gates = [
            n for n in subject.transitive_fanin(subject.primary_outputs)
            if n.is_gate
        ]
        if not lifecycle.finished(live_gates):
            raise RuntimeError(
                "fusion left live nodes that are neither hawk nor dove")
        covers = {
            "fused": MapResult(fused, subject, lifecycle,
                               list(range(len(subject.primary_outputs)))),
            "tree": tree_result,
            "cuts": cut_result,
        }
        # The first minimum: ties keep the fused cover, then the tree's.
        cover = min(covers, key=lambda name: _netlist_cost(
            covers[name].mapped, self.mode))
        won = covers[cover]
        return FusionMapResult(
            won.mapped, subject, won.lifecycle, list(won.cone_order),
            choices=choices, tree_result=tree_result, cut_result=cut_result,
            cover=cover)

    def _copy_cone(
        self,
        fused: MappedNetwork,
        driver: MappedNode,
        tag: str,
        provenance: Dict[str, Tuple[SubjectNode, FrozenSet[SubjectNode]]],
        copies: Dict[Tuple[str, str], MappedNode],
        constants: Dict[bool, MappedNode],
        lifecycle: LifecycleTracker,
    ) -> MappedNode:
        """Copy one source cone into the fused netlist (post-order DFS).

        Instances are renamed ``<tag>_<name>`` so the two sources never
        collide; primary inputs and constants are shared.  ``copies`` maps
        ``(tag, source name)`` to the fused node.  Every copied
        instance's provenance replays into the fused lifecycle (hawk for
        the match root, doves for the interior), which reconstructs a
        legal Figure 2.2 history covering all live gates.
        """
        stack: List[Tuple[MappedNode, bool]] = [(driver, False)]
        while stack:
            node, expanded = stack.pop()
            key = (tag, node.name)
            if key in copies:
                continue
            if node.is_pi:
                copies[key] = fused[node.name]
            elif node.is_constant:
                if node.const_value not in constants:
                    constants[node.const_value] = fused.add_constant(
                        node.name, node.const_value)
                copies[key] = constants[node.const_value]
            elif not expanded:
                stack.append((node, True))
                for fanin in node.fanins:
                    stack.append((fanin, False))
            else:
                fanins = [copies[(tag, fanin.name)] for fanin in node.fanins]
                instance = fused.add_gate(f"{tag}_{node.name}", node.cell,
                                          fanins)
                instance.arrival = node.arrival
                instance.position = node.position
                copies[key] = instance
                entry = provenance.get(node.name)
                if entry is not None:
                    root, inner = entry
                    lifecycle.make_hawk(root)
                    for dove in sorted(inner, key=lambda n: n.uid):
                        lifecycle.make_dove(dove)
        return copies[(tag, driver.name)]
