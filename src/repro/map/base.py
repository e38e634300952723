"""The shared dynamic-programming covering engine (DAGON/MIS style).

Cones are processed one primary output at a time (optionally in Lily's
Section 3.5 order).  Within a cone, every gate node gets its best match by
bottom-up DP: the cost of match ``m`` at node ``v`` is the hook-defined
combination of the gate's own cost and the best costs of the match inputs.
The chosen cover is then committed: match roots become *hawks* (instantiated
library gates), covered interior nodes become *doves*, and logic shared with
later cones may be duplicated (dove reincarnation) exactly as in Section 2.

Solutions are kept across cones (:class:`SolutionMemo`): a shared node is
solved again only when a node its solution read has since become a hawk,
so the DP does work proportional to the subject graph rather than to the
sum of the cone sizes.

Subclasses specialise four hooks:

* :meth:`evaluate_match` — the cost function (area / arrival / layout);
* :meth:`hawk_solution` — the cost of reusing an already-mapped node;
* :meth:`position_for` — a ``map_position`` for a committed gate (Lily);
* :meth:`on_begin` / :meth:`on_cone_done` / :meth:`on_commit` — lifecycle
  hooks (Lily's placement bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point
from repro.library.cell import Library
from repro.library.patterns import pattern_set_for
from repro.map.cones import logic_cones, order_cones
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.map.netlist import MappedNetwork, MappedNode
from repro.match.treematch import Match, Matcher
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.perf.memomatch import MemoMatcher
from repro.perf.options import PerfOptions
from repro.perf.parallel import prewarm_match_cache

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


class SolutionMemo(dict):
    """The covering DP's best solution per subject-node uid, kept across cones.

    A solution is a function of what ``solution_of`` answered for the
    nodes it read (the inputs of every candidate at its node).  That
    answer changes only when a read node becomes a hawk: hawks are final,
    and a dove still answers its own memo entry.  So an entry stays valid
    until a node it read becomes a hawk, directly or through another
    entry it read; :meth:`drop_stale` then drops it and, transitively,
    every entry that read it.

    Hawks are queued by :meth:`note_hawk` during a commit and dropped by
    the next cone's :meth:`drop_stale`, because a commit still reads the
    memo entry of a cover root after its leaves have become hawks.  A
    mapper whose costs read state that changes at every commit (Lily)
    empties the memo in ``on_cone_begin``; :meth:`drop_stale` on an empty
    memo costs nothing.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Node uid -> uids of the entries that read it (static per graph:
        #: a node's candidates never change during one ``map``).
        self._readers: Dict[int, List[int]] = {}
        self._registered: Set[int] = set()
        self._new_hawks: List[int] = []

    def store(self, node: SubjectNode, solution,
              reads: Iterable[SubjectNode]) -> None:
        """Record ``node``'s solution and, once per node, what it read."""
        uid = node.uid
        self[uid] = solution
        if uid in self._registered:
            return
        self._registered.add(uid)
        readers = self._readers
        for read in {n.uid for n in reads if n.is_gate}:
            readers.setdefault(read, []).append(uid)

    def note_hawk(self, node: SubjectNode) -> None:
        """``node`` became a hawk; its readers go stale after the commit."""
        self._new_hawks.append(node.uid)

    def drop_stale(self) -> int:
        """Drop every entry that read a new hawk; returns how many."""
        hawks = self._new_hawks
        if not self:
            hawks.clear()
            return 0
        for uid in hawks:
            self.pop(uid, None)  # final now: answered by hawk_solution
        dropped = 0
        readers = self._readers
        stack = hawks
        while stack:
            for reader in readers.get(stack.pop(), ()):
                if self.pop(reader, None) is not None:
                    dropped += 1
                    stack.append(reader)
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
        return len(self.mapped.gates)

    @property
    def cell_area(self) -> float:
        return self.mapped.total_cell_area()


class BaseMapper:
    """DP tree/DAG covering over logic cones.

    Args:
        library: target gate library.
        tree_mode: restrict matches to DAGON's maximal-tree partition
            (no match may cross a multi-fanout stem).
        use_cone_ordering: process cones in the Section 3.5 order instead
            of declaration order.
        perf: matcher fast-path switches (:class:`PerfOptions`);
            defaults to all caches on, one job.  Every setting maps
            bit-identically to the naive matcher.
    """

    def __init__(
        self,
        library: Library,
        tree_mode: bool = False,
        use_cone_ordering: bool = False,
        matcher=None,
        perf: Optional[PerfOptions] = None,
    ) -> None:
        self.library = library
        self.patterns = pattern_set_for(library)
        self.perf = perf if perf is not None else PerfOptions()
        if matcher is None:
            if self.perf.memoize_matches or self.perf.index_patterns:
                matcher = MemoMatcher(
                    self.patterns,
                    tree_mode=tree_mode,
                    memoize=self.perf.memoize_matches,
                    index=self.perf.index_patterns,
                )
            else:
                matcher = Matcher(self.patterns, tree_mode=tree_mode)
        self.matcher = matcher
        self.tree_mode = tree_mode
        self.use_cone_ordering = use_cone_ordering
        # Per-run state, initialised in map().
        self.subject: Optional[SubjectGraph] = None
        self.lifecycle: Optional[LifecycleTracker] = None
        self.mapped: Optional[MappedNetwork] = None
        self.instances: Dict[int, MappedNode] = {}
        self.memo = SolutionMemo()
        self._gate_counter = 0
        self._match_cache: Dict[int, List[Match]] = {}

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

    def cone_sequence(self, subject: SubjectGraph, cones) -> List[int]:
        """Order in which cones are processed."""
        if self.use_cone_ordering:
            return order_cones(subject, cones)
        return list(range(len(cones)))

    # -- main entry -------------------------------------------------------------

    def map(self, subject: SubjectGraph) -> MapResult:
        """Cover the subject graph; returns the mapped netlist and records."""
        self.subject = subject
        self.lifecycle = LifecycleTracker()
        self.mapped = MappedNetwork(f"{subject.name}_mapped")
        self.instances = {}
        self.memo = SolutionMemo()
        self._gate_counter = 0
        self._match_cache = {}

        for pi in subject.primary_inputs:
            self.instances[pi.uid] = self.mapped.add_primary_input(pi.name)

        bind = getattr(self.matcher, "bind", None)
        if bind is not None:
            bind(subject)
        cones = logic_cones(subject)
        order = self.cone_sequence(subject, cones)
        if self.perf.jobs > 1:
            prewarm_match_cache(self, cones, order, self.perf.jobs)
        self.on_begin(subject)
        for index in order:
            po, cone = cones[index]
            self._map_cone(po, cone)
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
        return MapResult(self.mapped, subject, self.lifecycle, list(order))

    # -- cone processing -----------------------------------------------------------

    def _matches_at(self, node: SubjectNode) -> List[Match]:
        cached = self._match_cache.get(node.uid)
        if cached is None:
            cached = self.matcher.matches_at(node)
            self._match_cache[node.uid] = cached
        elif OBS.enabled:
            OBS.metrics.counter("match.cache_hits").inc()
        return cached

    def _map_cone(self, po: SubjectNode, cone: Set[SubjectNode]) -> None:
        driver = po.fanins[0]
        if OBS.enabled:
            OBS.metrics.counter("dp.cones").inc()
            OBS.metrics.histogram("dp.cone_size").observe(len(cone))
        self.on_cone_begin(po)
        if driver.is_gate:
            self._solve_cone(driver, cone)
            instance = self._commit(driver)
        elif driver.is_pi:
            instance = self.instances[driver.uid]
        else:  # constant
            instance = self._constant_instance(driver)
        self.mapped.add_primary_output(po.name, instance)
        self.on_cone_done(po)

    def _solve_cone(self, root: SubjectNode, cone: Set[SubjectNode]) -> None:
        """Bottom-up DP over the cone's gates (reversed-DFS order).

        Gates whose memo entry is still valid keep it (see
        :class:`SolutionMemo`); such a gate was visited when it was solved,
        so skipping :meth:`LifecycleTracker.visit` changes no state.
        """
        memo = self.memo
        invalidated = memo.drop_stale()
        reused = 0
        for node in self._cone_topological(root):
            if self.lifecycle.is_hawk(node):
                continue  # reuse: its gate already exists
            if node.uid in memo:
                reused += 1
                continue
            self.lifecycle.visit(node)
            best: Optional[Solution] = None
            best_key: Optional[tuple] = None
            matches = self._matches_at(node)
            if OBS.enabled:
                OBS.metrics.counter("dp.nodes_visited").inc()
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
            if best is None:
                raise NoMatchError(
                    f"no match at {node.name} ({node.type.value}); "
                    f"library {self.library.name!r} cannot cover the graph"
                )
            memo.store(node, best, reads)
        if OBS.enabled:
            OBS.metrics.counter("dp.solutions_reused").inc(reused)
            OBS.metrics.counter("dp.solutions_invalidated").inc(invalidated)

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
        """Best solution for a node referenced as a match input."""
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

        Iterative post-order over the chosen matches' input DAG; revisits of
        already-resolved nodes are harmless no-ops.
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
            for v in solution.match.inputs:
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
        match = solution.match
        fanins = []
        for v in match.inputs:
            if v.is_constant and v.uid not in self.instances:
                self._constant_instance(v)
            fanins.append(self.instances[v.uid])
        self._gate_counter += 1
        name = f"{match.cell.name}_{self._gate_counter}"
        instance = self.mapped.add_gate(name, match.cell, fanins)
        instance.arrival = solution.arrival
        instance.position = self.position_for(node, match)
        self.lifecycle.make_hawk(node)
        self.memo.note_hawk(node)
        for inner in sorted(match.inner, key=attrgetter("uid")):
            self.lifecycle.make_dove(inner)
        self.instances[node.uid] = instance
        if OBS.enabled:
            OBS.metrics.counter("dp.gates_committed").inc()
        self.on_commit(node, solution, instance)
