"""Lily: layout-driven technology mapping (Sections 3 and 4).

Both mappers keep a live placement of the inchoate network:

1. ``on_begin`` fixes I/O pads, predicts the layout image and runs the
   GORDIAN-style global placement of the subject graph (Section 3.1).
2. Every candidate match gets a tentative *mapPosition* (CM-of-Merged or
   CM-of-Fans, Section 3.2) and a wire cost from its fanin rectangles
   (Sections 3.3–3.4).
3. Committed matches record their mapPosition; later cones see hawks at
   their real locations.  Optionally the partially mapped network is
   re-placed every N cones.

:class:`LilyAreaMapper` minimises ``area + w * wire`` (Section 3);
:class:`LilyDelayMapper` minimises arrival times with placement-derived
wire capacitance and the LI/LD block-arrival split (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.area.estimate import subject_image
from repro.core.position import cm_of_fans, cm_of_merged
from repro.core.rectangles import fanin_rectangle, fanout_rectangle
from repro.core.state import PlacementState
from repro.core.wirecost import match_wire_cost
from repro.geometry import Point, Rect, _median
from repro.library.cell import Library
from repro.map.base import BaseMapper, Solution
from repro.map.lifecycle import NodeState
from repro.map.netlist import MappedNode
from repro.match.treematch import Match
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.perf.netcache import NetCache
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import subject_netlist
from repro.place.pads import assign_pads
from repro.route.wirelength import chung_hwang_factor
from repro.timing.model import WireCapModel

__all__ = ["LilyOptions", "LilyAreaMapper", "LilyDelayMapper"]


@dataclass
class LilyOptions:
    """Tuning knobs of the Lily cost model.

    Attributes:
        position_update: ``cm_of_fans`` (default) or ``cm_of_merged``.
        norm: ``manhattan`` (separable median) or ``euclidean``
            (centre-of-mass approximation) for CM-of-Fans.
        wire_model: ``halfperim`` (Chung–Hwang-corrected half-perimeter)
            or ``spanning`` (rectilinear spanning tree).
        wire_weight: routing area per unit wire length (µm² per µm) —
            converts the wire estimate into area-cost units; Section 5
            suggests reducing it when the estimate misleads the mapper,
            and measurement bears that out: the default is deliberately
            below the physical track pitch (see EXPERIMENTS.md).
        use_cone_ordering: apply the Section 3.5 cone order.  Off by
            default: on our substrate the ordering's interaction with
            hawk reuse costs more area/wire than its estimate-freshness
            buys (EXPERIMENTS.md ablation A3).
        replace_interval: re-place the partially mapped network every N
            cones (0 disables; Section 3.2's balancing refresh).
        min_cells_per_region: global-placement stopping parameter.
    """

    position_update: str = "cm_of_fans"
    norm: str = "manhattan"
    wire_model: str = "halfperim"
    wire_weight: float = 2.0
    use_cone_ordering: bool = False
    replace_interval: int = 0
    min_cells_per_region: int = 8


class _LilyMixin:
    """Placement plumbing shared by the area and delay mappers."""

    def _init_lily(
        self,
        options: Optional[LilyOptions],
        region: Optional[Rect],
        pad_positions: Optional[Dict[str, Point]],
    ) -> None:
        self.options = options or LilyOptions()
        self._region = region
        self._pad_positions = pad_positions
        self.state: Optional[PlacementState] = None
        self._cones_since_replacement = 0
        #: Cross-cone true-fanout and pin-point cache (built in
        #: ``on_begin``, invalidated by delta on every commit).
        self._netcache: Optional[NetCache] = None
        #: Cached quadratic-system assembly reused by every periodic
        #: re-place (anchors only touch the diagonal/rhs).
        self._quad_system = None

    def _true_fanouts(self, node: SubjectNode) -> List[SubjectNode]:
        """:func:`~repro.core.rectangles.true_fanouts`, cached across cones."""
        return self._netcache.consumers(node)

    def on_cone_begin(self, po: SubjectNode) -> None:
        # Costs read placements and dove states that every commit moves,
        # so no solution outlives its cone (see SolutionMemo).
        self.memo.clear()

    # -- global placement of the inchoate network (Section 3.1) -------------

    def on_begin(self, subject: SubjectGraph) -> None:
        region = self._region or subject_image(len(subject.gates))
        pads = self._pad_positions
        if pads is None:
            pads = assign_pads(subject, region)
        self._netlist = subject_netlist(subject, pads)
        placer = GlobalPlacer(
            min_cells_per_region=self.options.min_cells_per_region,
        )
        with OBS.span("lily.initial_place", gates=len(subject.gates)):
            placement = placer.place(self._netlist, region)
        self.state = PlacementState(region, placement.positions, pads)
        self.state.bind(subject)
        self.placement_region = region
        self.pad_positions = pads
        self._netcache = NetCache(self.state, self.lifecycle)

    # -- incremental updating (Section 3.2) -----------------------------------

    def _input_position(self, node: SubjectNode, solution: Solution) -> Point:
        """mapPosition of the best gate matching at a match input."""
        if solution.position is not None:
            return solution.position
        return self.state.best_position(node)

    def _tentative_position(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Point:
        if OBS.enabled:
            OBS.metrics.counter("lily.position_evals").inc()
        if self.options.position_update == "cm_of_merged":
            return cm_of_merged(match.covered, self.state)
        if self.options.position_update != "cm_of_fans":
            raise ValueError(
                f"unknown position update: {self.options.position_update!r}"
            )
        rects = []
        for index, fanin in enumerate(match.inputs):
            if fanin.is_constant:
                continue
            rects.append(
                fanin_rectangle(
                    fanin,
                    match.covered,
                    self.state,
                    self.lifecycle,
                    fanin_position=self._input_position(fanin, inputs[index]),
                    consumers=self._true_fanouts(fanin),
                )
            )
        out_rect = fanout_rectangle(
            node, match.covered, self.state, self.lifecycle
        )
        if not rects and out_rect is None:
            return cm_of_merged(match.covered, self.state)
        return cm_of_fans(rects, out_rect, norm=self.options.norm)

    def position_for(self, node: SubjectNode, match: Match) -> Optional[Point]:
        solution = self.memo.get(node.uid)
        if solution is not None and solution.position is not None:
            return solution.position
        return cm_of_merged(match.covered, self.state)

    def on_commit(
        self, node: SubjectNode, solution: Solution, instance: MappedNode
    ) -> None:
        if instance.position is not None:
            self.state.set_map_position(node, instance.position)
        # The root became a hawk (with a fresh map position) and the
        # inner nodes became doves: drop the net entries that saw them.
        cache = self._netcache
        cache.invalidate(node)
        if solution.match is not None:
            for inner in solution.match.inner:
                cache.invalidate(inner)

    def on_cone_done(self, po: SubjectNode) -> None:
        interval = self.options.replace_interval
        if interval <= 0:
            return
        self._cones_since_replacement += 1
        if self._cones_since_replacement >= interval:
            self._cones_since_replacement = 0
            self._replace_partial()

    def _replace_partial(self) -> None:
        """Re-place the partially mapped network (Section 3.2).

        One quadratic solve with hawks pulled strongly toward their
        mapPositions; all gates (eggs and hawks alike) receive fresh
        placePositions, restoring balance after constructive updates.

        The system assembly is cached across re-places (only the hawk
        anchors change between calls), and the solver starts from the
        current placePositions instead of solving cold — on the
        iterative-CG path (large netlists) that converges in far fewer
        iterations, at the price of matching a cold solve only to solver
        tolerance rather than bitwise.
        """
        if OBS.enabled:
            OBS.metrics.counter("lily.replacements").inc()
        anchors: Dict[str, Tuple[Point, float]] = {}
        for node in self.subject.nodes:
            if not node.is_gate:
                continue
            if self.lifecycle.state(node) is NodeState.HAWK:
                p = self.state.map_position(node)
                if p is not None:
                    anchors[node.name] = (p, 1.0)
        if self._quad_system is None:
            from repro.place.quadratic import QuadraticSystem

            self._quad_system = QuadraticSystem(
                self._netlist, self.placement_region)
        state = self.state
        initial = {
            node.name: state.place_position(node)
            for node in self.subject.nodes
            if node.is_gate
        }
        with OBS.span("lily.replace", anchors=len(anchors)):
            positions = self._quad_system.solve(anchors, initial=initial)
        for node in self.subject.nodes:
            if node.is_gate:
                p = positions.get(node.name)
                if p is not None:
                    self.state.set_place_position(node, p)
        self._netcache.clear()  # every gate may have moved


class LilyAreaMapper(_LilyMixin, BaseMapper):
    """Minimum-layout-area mapping (Section 3).

    ``aCost`` and ``wCost`` follow the paper's recursion; the combined DP
    objective is ``aCost + wire_weight * wCost``.
    """

    def __init__(
        self,
        library: Library,
        options: Optional[LilyOptions] = None,
        region: Optional[Rect] = None,
        pad_positions: Optional[Dict[str, Point]] = None,
        **kwargs,
    ) -> None:
        options = options or LilyOptions()
        kwargs.setdefault("use_cone_ordering", options.use_cone_ordering)
        super().__init__(library, **kwargs)
        self._init_lily(options, region, pad_positions)

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        if (
            self.options.wire_model == "halfperim"
            and self.options.position_update == "cm_of_fans"
        ):
            return self._evaluate_fast(node, match, inputs)
        return self._evaluate_general(node, match, inputs)

    def _evaluate_general(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """The cost under any position update and wire model.

        Built from the Section 3 primitives (fan rectangles, tentative
        position, :func:`~repro.core.wirecost.match_wire_cost`).  The
        golden-equivalence tests run it for every match, as the oracle
        of :meth:`_evaluate_fast`.
        """
        position = self._tentative_position(node, match, inputs)
        input_positions = [
            self._input_position(v, inputs[i])
            for i, v in enumerate(match.inputs)
        ]
        wire_increment = match_wire_cost(
            match,
            position,
            input_positions,
            self.state,
            self.lifecycle,
            model=self.options.wire_model,
            consumers_of=self._true_fanouts,
        )
        area = match.cell.area + sum(s.area for s in inputs)
        wire = wire_increment + sum(s.wire for s in inputs)
        cost = area + self.options.wire_weight * wire
        return Solution(
            node, match, cost=cost, area=area, wire=wire, position=position
        )

    def _evaluate_fast(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """The halfperim/CM-of-Fans cost, on cached net data.

        Bit-identical to :meth:`_evaluate_general`: each input's fanin
        rectangle is the min/max fold of the cached pin points (min/max
        are order-independent), the wire rectangle is the same rectangle
        extended by the gate position (exactly ``extra_point``), and all
        summations run in the same order.  Asserted by the golden-
        equivalence tests.
        """
        if OBS.enabled:
            OBS.metrics.counter("lily.position_evals").inc()
        cache = self._netcache
        covered = match.covered
        covered_uids = {n.uid for n in covered}
        #: Per non-constant input: (lx, ly, ux, uy, len(remaining)).
        folds = []
        for index, fanin in enumerate(match.inputs):
            if fanin.is_constant:
                continue
            _, uids, xs, ys = cache.entry(fanin)
            fp = self._input_position(fanin, inputs[index])
            lx = ux = fp.x
            ly = uy = fp.y
            remaining = 0
            for uid, x, y in zip(uids, xs, ys):
                if uid in covered_uids:
                    continue
                remaining += 1
                if x < lx:
                    lx = x
                elif x > ux:
                    ux = x
                if y < ly:
                    ly = y
                elif y > uy:
                    uy = y
            folds.append((lx, ly, ux, uy, remaining))
        # Output-net rectangle over the cached direct-fanout points.
        out_uids, out_xs, out_ys = cache.out_entry(node)
        have_out = False
        olx = oly = oux = ouy = 0.0
        for uid, x, y in zip(out_uids, out_xs, out_ys):
            if uid in covered_uids:
                continue
            if not have_out:
                have_out = True
                olx = oux = x
                oly = ouy = y
                continue
            if x < olx:
                olx = x
            elif x > oux:
                oux = x
            if y < oly:
                oly = y
            elif y > ouy:
                ouy = y
        if not folds and not have_out:
            position = cm_of_merged(covered, self.state)
        elif self.options.norm == "manhattan":
            # Inlined optimal_point_manhattan: median over the corner
            # coordinates of all fan rectangles.
            mxs: List[float] = []
            mys: List[float] = []
            for lx, ly, ux, uy, _ in folds:
                mxs.append(lx)
                mxs.append(ux)
                mys.append(ly)
                mys.append(uy)
            if have_out:
                mxs.append(olx)
                mxs.append(oux)
                mys.append(oly)
                mys.append(ouy)
            position = Point(_median(mxs), _median(mys))
        else:
            rects = [Rect(lx, ly, ux, uy) for lx, ly, ux, uy, _ in folds]
            out_rect = Rect(olx, oly, oux, ouy) if have_out else None
            position = cm_of_fans(rects, out_rect, norm=self.options.norm)
        gx, gy = position.x, position.y
        wire_increment = 0.0
        for lx, ly, ux, uy, remaining in folds:
            width = (ux if ux > gx else gx) - (lx if lx < gx else gx)
            height = (uy if uy > gy else gy) - (ly if ly < gy else gy)
            wire_increment += (
                (width + height) * chung_hwang_factor(remaining + 2)
            ) / (remaining + 1)
        area = match.cell.area + sum(s.area for s in inputs)
        wire = wire_increment + sum(s.wire for s in inputs)
        cost = area + self.options.wire_weight * wire
        return Solution(
            node, match, cost=cost, area=area, wire=wire, position=position
        )

    def hawk_solution(self, node: SubjectNode) -> Solution:
        instance = self.instances[node.uid]
        return Solution(
            node,
            None,
            cost=0.0,
            area=0.0,
            wire=0.0,
            position=self.state.map_position(node),
            arrival=instance.arrival or 0.0,
        )


class LilyDelayMapper(_LilyMixin, BaseMapper):
    """Minimum-delay mapping with wiring delay (Section 4).

    Implements the five-step procedure of Section 4.4: the output arrival
    of every match input is *recalculated* with its now-known load (type
    and position of ``gate(m)``), block arrival times split the linear
    delay into load-independent and load-dependent parts, and the output
    load of the candidate uses the base-function gates at the node's
    inchoate fanouts plus the placement-derived wire capacitance.
    """

    def __init__(
        self,
        library: Library,
        options: Optional[LilyOptions] = None,
        region: Optional[Rect] = None,
        pad_positions: Optional[Dict[str, Point]] = None,
        wire_cap: Optional[WireCapModel] = None,
        input_arrivals: Optional[Dict[str, float]] = None,
        pad_cap: float = 0.25,
        **kwargs,
    ) -> None:
        options = options or LilyOptions()
        kwargs.setdefault("use_cone_ordering", options.use_cone_ordering)
        super().__init__(library, **kwargs)
        self._init_lily(options, region, pad_positions)
        self.wire_cap = wire_cap or WireCapModel()
        self.input_arrivals = dict(input_arrivals or {})
        self.pad_cap = pad_cap
        #: Base-function input capacitance for egg/nestling fanouts.
        self._base_cap = library.nand2().pins[0].input_cap

    # -- Section 4 load and arrival machinery --------------------------------

    def _fanout_cap_and_point(
        self, consumer: SubjectNode
    ) -> Tuple[float, Point]:
        """Capacitance and position a true fanout contributes to a net."""
        if consumer.is_po:
            p = self.state.place_position(consumer)
            return self.pad_cap, p
        if (
            consumer.is_gate
            and self.lifecycle.state(consumer) is NodeState.HAWK
        ):
            instance = self.instances.get(consumer.uid)
            cap = (
                instance.cell.max_input_cap
                if instance is not None
                else self._base_cap
            )
            p = self.state.best_position(consumer)
            return cap, p
        return self._base_cap, self.state.place_position(consumer)

    def _load_at_input(
        self,
        fanin: SubjectNode,
        match: Match,
        pin_index: int,
        gate_position: Point,
        fanin_position: Point,
    ) -> float:
        """Current load at a match input (Section 4.4, step 1)."""
        covered_set = {n.uid for n in match.covered}
        cap = match.cell.pins[pin_index].input_cap  # gate(m) itself
        points: List[Point] = [fanin_position, gate_position]
        for consumer in self._true_fanouts(fanin):
            if consumer.uid in covered_set:
                continue
            c, p = self._fanout_cap_and_point(consumer)
            cap += c
            points.append(p)
        cap += self._wire_cap(points)
        return cap

    def _wire_cap(self, points: Sequence[Point]) -> float:
        if len(points) < 2:
            return 0.0
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return self.wire_cap.capacitance(max(xs) - min(xs), max(ys) - min(ys))

    def _recalculated_arrival(
        self, node: SubjectNode, solution: Solution, load: float
    ) -> float:
        """Output arrival of a match input under a known load.

        Only the load-dependent ``R_i * C_L`` part is recomputed; the block
        arrival times ``b_i`` are fixed (the LI/LD split of Section 4.3).
        """
        if solution.block_arrivals is None or solution.match is None:
            return solution.arrival  # PI, constant, or positionless leaf
        cell = solution.match.cell
        return max(
            b + cell.pins[i].timing.worst_resistance * load
            for i, b in enumerate(solution.block_arrivals)
        )

    def _output_load(
        self, node: SubjectNode, match: Match, gate_position: Point
    ) -> float:
        """Step 3: output load of gate(m) from the inchoate fanouts."""
        covered_set = {n.uid for n in match.covered}
        cap = 0.0
        points: List[Point] = [gate_position]
        consumers = [s for s in node.fanouts if s.uid not in covered_set]
        if not consumers:
            cap += self.pad_cap
        for consumer in consumers:
            c, p = self._fanout_cap_and_point(consumer)
            cap += c
            points.append(p)
        cap += self._wire_cap(points)
        return cap

    # -- DP hooks ---------------------------------------------------------------

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        position = self._tentative_position(node, match, inputs)
        blocks: List[float] = []
        for pin_index, fanin in enumerate(match.inputs):
            fanin_position = self._input_position(fanin, inputs[pin_index])
            load = self._load_at_input(
                fanin, match, pin_index, position, fanin_position
            )
            t_in = self._recalculated_arrival(fanin, inputs[pin_index], load)
            timing = match.cell.pins[pin_index].timing
            blocks.append(t_in + timing.worst_block)
        output_load = self._output_load(node, match, position)
        arrival = max(
            b + match.cell.pins[i].timing.worst_resistance * output_load
            for i, b in enumerate(blocks)
        )
        area = match.cell.area + sum(s.area for s in inputs)
        return Solution(
            node,
            match,
            cost=arrival,
            area=area,
            arrival=arrival,
            position=position,
            block_arrivals=blocks,
        )

    def leaf_solution(self, node: SubjectNode) -> Solution:
        arrival = self.input_arrivals.get(node.name, 0.0)
        position = (
            self.state.place_position(node) if self.state is not None else None
        )
        return Solution(
            node, None, cost=arrival, arrival=arrival, position=position
        )

    def hawk_solution(self, node: SubjectNode) -> Solution:
        instance = self.instances[node.uid]
        committed = self._committed_solutions.get(node.uid)
        arrival = instance.arrival if instance.arrival is not None else 0.0
        blocks = committed.block_arrivals if committed is not None else None
        match = committed.match if committed is not None else None
        return Solution(
            node,
            match,
            cost=arrival,
            arrival=arrival,
            position=self.state.map_position(node),
            block_arrivals=blocks,
        )

    def on_commit(
        self, node: SubjectNode, solution: Solution, instance: MappedNode
    ) -> None:
        super().on_commit(node, solution, instance)
        self._committed_solutions[node.uid] = solution

    def map(self, subject: SubjectGraph):
        self._committed_solutions: Dict[int, Solution] = {}
        return super().map(subject)
