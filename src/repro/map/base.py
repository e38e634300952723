"""The covering driver every DP mapper runs on (DAGON/MIS style).

Cones are processed one primary output at a time (optionally in Lily's
Section 3.5 order, the only one that builds the cones' gate sets; a cone
is otherwise just the walk of its DP).  Within a cone, every gate node
gets its best candidate by bottom-up DP; the chosen cover is then
committed: candidate roots become *hawks* (instantiated library gates),
covered interior nodes become *doves*, and logic shared with later cones
may be duplicated (dove reincarnation) exactly as in Section 2.

Solutions are kept across cones (:class:`SolutionMemo`): a shared node is
solved again only when something its solution read has since changed (a
read node became a hawk, or, for Lily, a net the solution priced was
touched by a commit), so the DP does work proportional to the subject
graph rather than to the sum of the cone sizes.

Subclasses specialise hooks of :class:`BaseMapper`:

* ``evaluate_match`` / ``leaf_solution`` / ``hawk_solution`` — the cost
  function (area / arrival / layout);
* ``position_for`` — a ``map_position`` for a committed gate (Lily);
* ``on_begin`` / ``on_cone_begin`` / ``on_cone_done`` / ``on_commit`` —
  lifecycle hooks (Lily's placement bookkeeping);
* ``prepare`` / ``best_solution`` / ``build_gate`` — the candidates: tree
  pattern matches by default, (cut, NPN binding) pairs in
  :class:`~repro.map.cuts.CutMapper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (Collection, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.geometry import Point
from repro.library.cell import Library
from repro.library.patterns import pattern_set_for
from repro.map.cones import order_cones
from repro.map.lifecycle import LifecycleTracker
from repro.map.netlist import MappedNetwork, MappedNode
from repro.match.treematch import Match, Matcher
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS

__all__ = ["Solution", "MapResult", "BaseMapper", "NoMatchError",
           "SolutionMemo"]


class NoMatchError(RuntimeError):
    """No library pattern matches a subject node (library not complete)."""


@dataclass
class Solution:
    """The best (so far) implementation choice at a subject node."""

    node: SubjectNode
    match: Optional[Match]  # None for leaves and reused hawks
    cost: float  # primary objective (mode-dependent)
    area: float = 0.0  # cumulative duplicated-area estimate
    arrival: float = 0.0  # estimated output arrival time
    wire: float = 0.0  # cumulative wire-cost estimate (Lily)
    #: Tentative constructive mapPosition of the matched gate (Lily).
    position: Optional[Point] = None
    #: Per-pin block arrival times b_i = t_i + I_i (Lily delay mode).
    block_arrivals: Optional[List[float]] = None

    def key(self) -> tuple:
        """Deterministic comparison key: cost, then area, then identity."""
        cell = self.match.cell.name if self.match else ""
        return (self.cost, self.area, cell)

    @property
    def inputs(self) -> Tuple[SubjectNode, ...]:
        """Subject nodes feeding the chosen gate, indexed by cell pin."""
        return self.match.inputs

    @property
    def inner(self) -> Collection[SubjectNode]:
        """Covered nodes other than the root (they become doves)."""
        return self.match.inner


class SolutionMemo(dict):
    """The covering DP's best solution per subject-node uid, kept across cones.

    A solution is a function of what ``solution_of`` answered for the
    nodes it read (the inputs of every candidate at its node).  That
    answer changes only when a read node becomes a hawk: hawks are final,
    and a dove still answers its own memo entry.  So an entry stays valid
    until a node it read becomes a hawk, directly or through another
    entry it read; :meth:`drop_stale` then drops it and, transitively,
    every entry that read it.

    A mapper whose costs also read placement state (Lily) reports what a
    commit changed: :meth:`note_changed` for the nets whose true-fanout
    lists or pin points moved (their readers are the entries that have
    the net's driver as a candidate input), and :meth:`note_stale` for
    nodes whose own entry read a changed net (the commit touched their
    output net).  Such a mapper clears the memo when every position
    moves at once.

    Every change is queued during a commit and dropped by the next cone's
    :meth:`drop_stale`, because a commit still reads the memo entry of a
    cover root after its leaves have become hawks.  :meth:`drop_stale` on
    an empty memo only forgets the queue.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Node uid -> uids of the entries that read it (static per graph:
        #: a node's candidates never change during one ``map``).
        self._readers: Dict[int, List[int]] = {}
        self._registered: Set[int] = set()
        self._new_hawks: List[int] = []
        self._changed: List[int] = []
        self._stale: List[int] = []

    def store(self, node: SubjectNode, solution,
              reads: Iterable[SubjectNode]) -> None:
        """Record ``node``'s solution and, once per node, what it read."""
        uid = node.uid
        self[uid] = solution
        if uid in self._registered:
            return
        self._registered.add(uid)
        readers = self._readers
        for read in {n.uid for n in reads}:
            readers.setdefault(read, []).append(uid)

    def note_hawk(self, node: SubjectNode) -> None:
        """``node`` became a hawk; its readers go stale after the commit."""
        self._new_hawks.append(node.uid)

    def note_changed(self, uids: Iterable[int]) -> None:
        """The nets driven by ``uids`` changed; their readers go stale."""
        self._changed.extend(uids)

    def note_stale(self, nodes: Iterable[SubjectNode]) -> None:
        """The entries at ``nodes`` (and their readers) go stale."""
        self._stale.extend(n.uid for n in nodes)

    def drop_stale(self) -> int:
        """Drop every entry a queued change made stale; returns how many."""
        dropped = 0
        if self:
            for uid in self._new_hawks:
                self.pop(uid, None)  # final now: answered by hawk_solution
            stack = self._new_hawks + self._changed
            for uid in self._stale:
                if self.pop(uid, None) is not None:
                    dropped += 1
                    stack.append(uid)
            readers = self._readers
            while stack:
                for reader in readers.get(stack.pop(), ()):
                    if self.pop(reader, None) is not None:
                        dropped += 1
                        stack.append(reader)
        self._new_hawks.clear()
        self._changed.clear()
        self._stale.clear()
        return dropped


@dataclass
class MapResult:
    """Everything a flow needs after mapping."""

    mapped: MappedNetwork
    subject: SubjectGraph
    lifecycle: LifecycleTracker
    cone_order: List[int]

    @property
    def num_gates(self) -> int:
        """Number of library gates in the mapped netlist."""
        return len(self.mapped.gates)

    @property
    def cell_area(self) -> float:
        """Summed cell area of the mapped netlist."""
        return self.mapped.total_cell_area()


class BaseMapper:
    """DP covering over logic cones, by default with tree pattern matches
    under MIS area costs.

    Args:
        library: target gate library.
        tree_mode: restrict matches to DAGON's maximal-tree partition
            (no match may cross a multi-fanout stem).
        use_cone_ordering: process cones in the Section 3.5 order instead
            of declaration order.
        matcher: the match source; anything with ``bind(graph)`` and
            ``matches_at(node)``.  Defaults to the structural
            :class:`Matcher` over the library's pattern set.
    """

    #: Prefix of the driver's work counters (``dp.nodes_visited``, ...).
    COUNTER_PREFIX = "dp"

    def __init__(
        self,
        library: Library,
        tree_mode: bool = False,
        use_cone_ordering: bool = False,
        matcher=None,
    ) -> None:
        self.library = library
        self.patterns = pattern_set_for(library)
        if matcher is None:
            matcher = Matcher(self.patterns, tree_mode=tree_mode)
        self.matcher = matcher
        self.tree_mode = tree_mode
        self.use_cone_ordering = use_cone_ordering
        self._reset()

    def _reset(self, subject: Optional[SubjectGraph] = None) -> None:
        """Set up the per-run state (for covering ``subject``, if given)."""
        self.subject = subject
        self.lifecycle = LifecycleTracker()
        self.mapped: Optional[MappedNetwork] = (
            MappedNetwork(f"{subject.name}_mapped")
            if subject is not None else None)
        self.instances: Dict[int, MappedNode] = {}
        self.memo = SolutionMemo()
        #: Node uid -> the solution committed there, for every hawk.
        self.committed: Dict[int, Solution] = {}
        self._gate_counter = 0

    # -- hooks (overridden by subclasses) ------------------------------------

    def on_begin(self, subject: SubjectGraph) -> None:
        """Called once before any cone is processed."""

    def on_cone_begin(self, po: SubjectNode) -> None:
        """Called before each cone's DP pass starts."""

    def on_cone_done(self, po: SubjectNode) -> None:
        """Called after each cone's cover has been committed."""

    def on_commit(self, node: SubjectNode, solution: Solution,
                  instance: MappedNode) -> None:
        """Called for each gate instantiated while committing a cover."""

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """Cost of implementing ``node`` with ``match`` — the DP objective.

        The base implementation is MIS area mode: gate area plus the summed
        costs of the match inputs.
        """
        cost = match.cell.area + sum(s.cost for s in inputs)
        area = match.cell.area + sum(s.area for s in inputs)
        return Solution(node, match, cost=cost, area=area)

    def hawk_solution(self, node: SubjectNode) -> Solution:
        """Cost of reusing an already-instantiated (hawk) node's output."""
        instance = self.instances[node.uid]
        arrival = instance.arrival if instance.arrival is not None else 0.0
        return Solution(node, None, cost=0.0, area=0.0, arrival=arrival)

    def leaf_solution(self, node: SubjectNode) -> Solution:
        """Cost of a primary input or constant leaf."""
        return Solution(node, None, cost=0.0, area=0.0, arrival=0.0)

    def position_for(
        self, node: SubjectNode, match: Match
    ) -> Optional[Point]:
        """``map_position`` for a newly committed gate (Lily overrides)."""
        return None

    def cone_sequence(self, subject: SubjectGraph) -> List[int]:
        """Order in which the cones (indices of ``subject``'s primary
        outputs) are processed.  Only the Section 3.5 order builds the
        cones' gate sets; the DP walks each cone itself."""
        if self.use_cone_ordering:
            return order_cones(subject)
        return list(range(len(subject.primary_outputs)))

    def prepare(self, subject: SubjectGraph) -> None:
        """Per-graph set-up after :meth:`on_begin`: bind the matcher.

        Binding builds the match lists after ``on_begin``, so Lily's
        initial placement runs before they fill the heap the garbage
        collector walks."""
        with OBS.span("match", gates=len(subject.gates)):
            self.matcher.bind(subject)

    def best_solution(
        self, node: SubjectNode
    ) -> Tuple[Optional[Solution], Iterable[SubjectNode]]:
        """The first minimum of :meth:`Solution.key` over the matches at
        gate ``node`` priced by :meth:`evaluate_match` (``None`` if none
        is), and the match inputs read."""
        best: Optional[Solution] = None
        best_key: Optional[tuple] = None
        matches = self.matcher.matches_at(node)
        if OBS.enabled:
            OBS.metrics.counter("dp.states_expanded").inc(len(matches))
        # Matches share inputs: answer solution_of once per input.
        solved: Dict[int, Solution] = {}
        reads: List[SubjectNode] = []
        for match in matches:
            inputs = []
            for v in match.inputs:
                answer = solved.get(v.uid)
                if answer is None:
                    answer = solved[v.uid] = self.solution_of(v)
                    reads.append(v)
                inputs.append(answer)
            solution = self.evaluate_match(node, match, inputs)
            if solution is None:
                continue
            key = solution.key()
            if best_key is None or key < best_key:
                best, best_key = solution, key
        return best, reads

    def build_gate(self, node: SubjectNode, solution: Solution,
                   fanins: List[MappedNode]) -> MappedNode:
        """Add the gate ``solution`` chose at ``node``, reading ``fanins``
        (the instances of its inputs); returns the gate's output."""
        match = solution.match
        self._gate_counter += 1
        name = f"{match.cell.name}_{self._gate_counter}"
        instance = self.mapped.add_gate(name, match.cell, fanins)
        instance.arrival = solution.arrival
        instance.position = self.position_for(node, match)
        return instance

    # -- main entry -------------------------------------------------------------

    def map(self, subject: SubjectGraph) -> MapResult:
        """Cover the subject graph; returns the mapped netlist and records."""
        order = self._cover(subject)
        return MapResult(self.mapped, subject, self.lifecycle, order)

    def _cover(self, subject: SubjectGraph) -> List[int]:
        """Run the covering driver behind every backend's ``map``;
        returns the cone order."""
        self._reset(subject)
        for pi in subject.primary_inputs:
            self.instances[pi.uid] = self.mapped.add_primary_input(pi.name)
        order = self.cone_sequence(subject)
        self.on_begin(subject)
        self.prepare(subject)
        outputs = subject.primary_outputs
        for index in order:
            self._map_cone(outputs[index])
        # The solutions served only this cover; released here, they no
        # longer weigh on every full garbage collection of the caller's
        # later work (a flow's layout back end).
        self.memo = SolutionMemo()
        self.mapped.check()
        live_gates = [
            n
            for n in subject.transitive_fanin(subject.primary_outputs)
            if n.is_gate
        ]
        if not self.lifecycle.finished(live_gates):
            raise RuntimeError(
                "mapping left live nodes that are neither hawk nor dove"
            )
        return list(order)

    # -- cone processing -----------------------------------------------------------

    def _map_cone(self, po: SubjectNode) -> None:
        driver = po.fanins[0]
        if OBS.enabled:
            prefix = self.COUNTER_PREFIX
            OBS.metrics.counter(f"{prefix}.cones").inc()
            if not driver.is_gate:  # a gate's cone is sized by its walk
                OBS.metrics.histogram(f"{prefix}.cone_size").observe(0)
        self.on_cone_begin(po)
        if driver.is_gate:
            self._solve_cone(driver)
            instance = self._commit(driver)
        elif driver.is_pi:
            instance = self.instances[driver.uid]
        else:  # constant
            instance = self._constant_instance(driver)
        self.mapped.add_primary_output(po.name, instance)
        self.on_cone_done(po)

    def _solve_cone(self, root: SubjectNode) -> None:
        """Bottom-up DP over the cone's gates (reversed-DFS order).

        Gates whose memo entry is still valid keep it (see
        :class:`SolutionMemo`); such a gate was visited when it was solved,
        so skipping :meth:`LifecycleTracker.visit` changes no state.  The
        walk is the cone's gate set (the output's transitive fanin gates),
        so its length is the ``cone_size`` sample.
        """
        memo = self.memo
        invalidated = memo.drop_stale()
        reused = 0
        visit_counter = f"{self.COUNTER_PREFIX}.nodes_visited"
        cone = self._cone_topological(root)
        if OBS.enabled:
            OBS.metrics.histogram(
                f"{self.COUNTER_PREFIX}.cone_size").observe(len(cone))
        for node in cone:
            if self.lifecycle.is_hawk(node):
                continue  # reuse: its gate already exists
            if node.uid in memo:
                reused += 1
                continue
            self.lifecycle.visit(node)
            if OBS.enabled:
                OBS.metrics.counter(visit_counter).inc()
            best, reads = self.best_solution(node)
            if best is None:
                raise NoMatchError(
                    f"no match at {node.name} ({node.type.value}); "
                    f"library {self.library.name!r} cannot cover the graph"
                )
            memo.store(node, best, reads)
        if OBS.enabled:
            prefix = self.COUNTER_PREFIX
            OBS.metrics.counter(f"{prefix}.solutions_reused").inc(reused)
            OBS.metrics.counter(f"{prefix}.solutions_invalidated").inc(
                invalidated)

    def _cone_topological(self, root: SubjectNode) -> List[SubjectNode]:
        """Gate nodes of the cone of ``root`` in fanin-first order."""
        order: List[SubjectNode] = []
        visited: Set[int] = set()
        stack: List[Tuple[SubjectNode, int]] = [(root, 0)]
        on_stack = {root.uid}
        while stack:
            node, idx = stack[-1]
            if idx < len(node.fanins):
                stack[-1] = (node, idx + 1)
                child = node.fanins[idx]
                if child.is_gate and child.uid not in visited and child.uid not in on_stack:
                    stack.append((child, 0))
                    on_stack.add(child.uid)
            else:
                stack.pop()
                on_stack.discard(node.uid)
                if node.uid not in visited:
                    visited.add(node.uid)
                    order.append(node)
        return order

    def solution_of(self, node: SubjectNode) -> Solution:
        """Best solution for a node referenced as a candidate input."""
        if node.is_pi or node.is_constant:
            return self.leaf_solution(node)
        if self.lifecycle.is_hawk(node):
            return self.hawk_solution(node)
        return self.memo[node.uid]

    # -- cover commitment -------------------------------------------------------------

    def _constant_instance(self, node: SubjectNode) -> MappedNode:
        existing = self.instances.get(node.uid)
        if existing is None:
            value = node.type.value == "const1"
            existing = self.mapped.add_constant(f"const{int(value)}", value)
            self.instances[node.uid] = existing
        return existing

    def _commit(self, root: SubjectNode) -> MappedNode:
        """Instantiate the chosen cover of ``root``; returns its instance.

        Iterative post-order over the chosen candidates' input DAG;
        revisits of already-resolved nodes are harmless no-ops.
        """
        stack: List[Tuple[SubjectNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_pi or self.lifecycle.is_hawk(node):
                continue
            if node.is_constant:
                self._constant_instance(node)
                continue
            solution = self.memo[node.uid]
            if expanded:
                self._instantiate(node, solution)
                continue
            stack.append((node, True))
            for v in solution.inputs:
                if not self._is_resolved(v):
                    stack.append((v, False))
        return self.instances[root.uid]

    def _is_resolved(self, node: SubjectNode) -> bool:
        if node.is_pi:
            return True
        if node.is_constant:
            return node.uid in self.instances
        return self.lifecycle.is_hawk(node)

    def _instantiate(self, node: SubjectNode, solution: Solution) -> None:
        fanins = []
        for v in solution.inputs:
            if v.is_constant and v.uid not in self.instances:
                self._constant_instance(v)
            fanins.append(self.instances[v.uid])
        instance = self.build_gate(node, solution, fanins)
        self.lifecycle.make_hawk(node)
        self.memo.note_hawk(node)
        for inner in sorted(solution.inner, key=attrgetter("uid")):
            self.lifecycle.make_dove(inner)
        self.instances[node.uid] = instance
        self.committed[node.uid] = solution
        if OBS.enabled:
            OBS.metrics.counter(f"{self.COUNTER_PREFIX}.gates_committed").inc()
        self.on_commit(node, solution, instance)
