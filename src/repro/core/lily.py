"""Lily: layout-driven technology mapping (Sections 3 and 4).

Both mappers keep a live placement of the inchoate network:

1. ``on_begin`` fixes I/O pads, predicts the layout image and runs the
   GORDIAN-style global placement of the subject graph (Section 3.1).
2. Every candidate match gets a tentative *mapPosition* (CM-of-Merged or
   CM-of-Fans, Section 3.2) and a wire cost from its fanin rectangles
   (Sections 3.3–3.4).  Both read the pins of the nets around the match
   from the :class:`~repro.perf.netcache.NetCache`, under every
   :class:`LilyOptions` combination.
3. Committed matches record their mapPosition; later cones see hawks at
   their real locations.  Optionally the partially mapped network is
   re-placed every N cones.

DP solutions are kept across cones, as in every covering backend
(:class:`~repro.map.base.SolutionMemo`).  Besides its input solutions, a
Lily solution at node v reads the :class:`~repro.perf.netcache.NetCache`
entry of each match input's net, v's own output net (its direct fanouts'
states and positions), and place positions.  So a commit of x (hawk or
dove) drops the solutions that read a net entry it invalidated and the
solutions at ``x.fanins``, whose output net it sits on; a re-place drops
everything.

Pricing a candidate at its mapPosition is the DP's costliest step, so
each candidate first gets an exact lower bound from its input solutions
alone (the priced cost without its non-negative placement terms), and
:meth:`_LilyMixin.best_solution` prices in ascending bound order until a
bound exceeds the best cost found.  The bounds need every capacitance,
drive resistance and wire weight to be non-negative; the mappers reject
anything else at construction.

:class:`LilyAreaMapper` minimises ``area + w * wire`` (Section 3);
:class:`LilyDelayMapper` minimises arrival times with placement-derived
wire capacitance and the LI/LD block-arrival split (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.area.estimate import subject_image
from repro.core.position import cm_of_fans, cm_of_merged
from repro.core.state import PlacementState
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
from repro.route.spanning import rectilinear_mst_length
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


def _require_nonnegative(value: float, what: str) -> None:
    """The cost bounds leave out terms built from these values by sums
    and products; a negative one (or NaN) could make a bound too high."""
    if not value >= 0.0:
        raise ValueError(
            f"{what} is {value!r}; Lily's cost bounds need it >= 0")


def _check_bound_parameters(library: Library, options: LilyOptions) -> None:
    """Refuse a library or options under which a cost bound could exceed
    the priced cost (see :meth:`_LilyMixin.best_solution`)."""
    for cell in library:
        for pin in cell.pins:
            where = f"cell {cell.name!r} pin {pin.name!r}"
            _require_nonnegative(pin.input_cap, f"{where} input capacitance")
            _require_nonnegative(pin.timing.rise_resistance,
                                 f"{where} rise resistance")
            _require_nonnegative(pin.timing.fall_resistance,
                                 f"{where} fall resistance")
    _require_nonnegative(options.wire_weight, "wire_weight")


#: The names each model field of :class:`LilyOptions` accepts.
_MODEL_NAMES = {
    "position_update": ("cm_of_fans", "cm_of_merged"),
    "norm": ("manhattan", "euclidean"),
    "wire_model": ("halfperim", "spanning"),
}


def _check_model_names(options: LilyOptions) -> None:
    """Refuse an unknown position update, norm or wire model before the
    mapper builds anything."""
    for field, names in _MODEL_NAMES.items():
        value = getattr(options, field)
        if value not in names:
            raise ValueError(
                f"unknown {field.replace('_', ' ')}: {value!r} "
                f"(expected one of {names})")


#: A match input's net box, ``(lx, ly, ux, uy, remaining)``: see
#: :meth:`_LilyMixin._fanin_boxes`.
_Box = Tuple[float, float, float, float, int]


class _LilyMixin:
    """Placement plumbing, net boxes, tentative positions and bounded
    pricing shared by the area and delay mappers."""

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
        self._netcache = self._make_netcache()

    def _make_netcache(self) -> NetCache:
        """The run's net cache (area mode: points only, no pin caps)."""
        return NetCache(self.state, self.lifecycle)

    # -- bounded pricing -------------------------------------------------------

    def cost_bound(self, match: Match, inputs: Sequence[Solution]) -> float:
        """A lower bound on ``evaluate_match(node, match, inputs).cost``,
        bit for bit, from the input solutions alone."""
        raise NotImplementedError

    def best_solution(
        self, node: SubjectNode
    ) -> Tuple[Optional[Solution], Iterable[SubjectNode]]:
        """:meth:`BaseMapper.best_solution`'s choice, pricing fewer matches.

        Matches are priced in ascending ``(cost_bound, match index)``
        order, and the step stops at the first bound above the best cost
        found: that match, and every later one, costs more than the best,
        so it cannot be chosen.  The winner is the minimum of
        ``(Solution.key(), match index)``, which is the base class's
        first minimum in scan order.  ``reads`` still lists every match's
        inputs (the memo's reader index is static per node), and
        ``dp.states_expanded`` still counts every match.

        A skipped match reads no net entry, so a later change to its nets
        is not reported against this node; that is exact, because the
        change cannot move its bound, which depends on the inputs only.
        """
        matches = self.matcher.matches_at(node)
        if OBS.enabled:
            OBS.metrics.counter("dp.states_expanded").inc(len(matches))
        # Matches share inputs: answer solution_of once per input.
        solved: Dict[int, Solution] = {}
        reads: List[SubjectNode] = []
        bounded = []
        cost_bound = self.cost_bound
        for index, match in enumerate(matches):
            inputs = []
            for v in match.inputs:
                answer = solved.get(v.uid)
                if answer is None:
                    answer = solved[v.uid] = self.solution_of(v)
                    reads.append(v)
                inputs.append(answer)
            bounded.append((cost_bound(match, inputs), index, match, inputs))
        # Indices are unique, so the sort never compares two matches.
        bounded.sort()
        best: Optional[Solution] = None
        best_key: Optional[tuple] = None
        for bound, index, match, inputs in bounded:
            if best is not None and bound > best.cost:
                break
            solution = self.evaluate_match(node, match, inputs)
            key = (solution.key(), index)
            if best_key is None or key < best_key:
                best, best_key = solution, key
        return best, reads

    # -- incremental updating (Section 3.2) -----------------------------------

    def _input_position(self, node: SubjectNode, solution: Solution) -> Point:
        """mapPosition of the best gate matching at a match input."""
        if solution.position is not None:
            return solution.position
        return self.state.best_position(node)

    def _fanin_boxes(
        self,
        match: Match,
        inputs: Sequence[Solution],
        covered_uids: AbstractSet[int],
    ) -> List[_Box]:
        """Per non-constant match input, in input order, the box of its
        net's pins that stay outside the match (Section 3.3's fanin
        rectangle): ``(lx, ly, ux, uy, remaining)``.

        The box folds the input's mapPosition and the cached points of
        its true fanouts that ``covered_uids`` leaves out; ``remaining``
        counts those fanouts.  Min and max do not depend on the order.
        """
        entry = self._netcache.entry
        boxes: List[_Box] = []
        for fanin, solution in zip(match.inputs, inputs):
            if fanin.is_constant:
                continue
            uids, xs, ys, _ = entry(fanin)
            fp = self._input_position(fanin, solution)
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
            boxes.append((lx, ly, ux, uy, remaining))
        return boxes

    def _tentative_position(
        self,
        node: SubjectNode,
        match: Match,
        inputs: Sequence[Solution],
        covered_uids: AbstractSet[int],
        boxes: Optional[List[_Box]] = None,
    ) -> Point:
        """The candidate's mapPosition (Section 3.2).

        CM-of-Fans takes the optimal point over the input nets' boxes
        (``boxes``, or :meth:`_fanin_boxes` if not given) and the box of
        ``node``'s direct fanouts outside the match: the median of the
        corner coordinates (Manhattan) or the centre of mass of the box
        centres (Euclidean).  With no box at all, and always under
        CM-of-Merged, the match sits at its covered nodes' centre of
        mass.
        """
        if OBS.enabled:
            OBS.metrics.counter("lily.position_evals").inc()
        if self.options.position_update == "cm_of_merged":
            return cm_of_merged(match.covered, self.state)
        if boxes is None:
            boxes = self._fanin_boxes(match, inputs, covered_uids)
        out_uids, out_xs, out_ys, _ = self._netcache.out_entry(node)
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
        if not boxes and not have_out:
            return cm_of_merged(match.covered, self.state)
        if self.options.norm == "manhattan":
            # optimal_point_manhattan without building the rectangles.
            mxs: List[float] = []
            mys: List[float] = []
            for lx, ly, ux, uy, _ in boxes:
                mxs.append(lx)
                mxs.append(ux)
                mys.append(ly)
                mys.append(uy)
            if have_out:
                mxs.append(olx)
                mxs.append(oux)
                mys.append(oly)
                mys.append(ouy)
            return Point(_median(mxs), _median(mys))
        rects = [Rect(lx, ly, ux, uy) for lx, ly, ux, uy, _ in boxes]
        out_rect = Rect(olx, oly, oux, ouy) if have_out else None
        return cm_of_fans(rects, out_rect, norm="euclidean")

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
        # inner nodes became doves: drop the net entries that saw them,
        # the solutions that priced those nets, and the solutions at
        # their fanins, whose output net they sit on.
        cache = self._netcache
        memo = self.memo
        for changed in (node, *solution.inner):
            memo.note_changed(cache.invalidate(changed))
            memo.note_stale(changed.fanins)

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
        # Every gate may have moved: no net entry or solution survives.
        self._netcache.clear()
        if OBS.enabled:
            OBS.metrics.counter("dp.solutions_invalidated").inc(len(self.memo))
        self.memo.clear()


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
        _check_bound_parameters(library, options)
        _check_model_names(options)
        kwargs.setdefault("use_cone_ordering", options.use_cone_ordering)
        super().__init__(library, **kwargs)
        self._init_lily(options, region, pad_positions)

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """``area + wire_weight * wire`` of ``match`` at its tentative
        mapPosition (Sections 3.2–3.4).

        The wire increment sums, per non-constant input in input order,
        the expected length of the input net, which its remaining true
        fanouts and gate(m) share: ``halfperim`` takes the half-perimeter
        of the input's box extended by the gate position, times the
        Chung–Hwang factor of the net's pins; ``spanning`` takes the
        rectilinear spanning tree over the input point, the gate point
        and the remaining fanouts' points in uid order.
        """
        covered_uids = {n.uid for n in match.covered}
        boxes = self._fanin_boxes(match, inputs, covered_uids)
        position = self._tentative_position(node, match, inputs,
                                            covered_uids, boxes)
        wire_increment = 0.0
        if self.options.wire_model == "halfperim":
            gx, gy = position.x, position.y
            for lx, ly, ux, uy, remaining in boxes:
                width = (ux if ux > gx else gx) - (lx if lx < gx else gx)
                height = (uy if uy > gy else gy) - (ly if ly < gy else gy)
                wire_increment += (
                    (width + height) * chung_hwang_factor(remaining + 2)
                ) / (remaining + 1)
        else:
            entry = self._netcache.entry
            for fanin, solution in zip(match.inputs, inputs):
                if fanin.is_constant:
                    continue
                uids, xs, ys, _ = entry(fanin)
                points = [self._input_position(fanin, solution), position]
                points.extend(Point(x, y) for uid, x, y in zip(uids, xs, ys)
                              if uid not in covered_uids)
                # Shared by the remaining fanouts and gate(m).
                wire_increment += (rectilinear_mst_length(points)
                                   / (len(points) - 1))
        area = match.cell.area + sum(s.area for s in inputs)
        wire = wire_increment + sum(s.wire for s in inputs)
        cost = area + self.options.wire_weight * wire
        return Solution(
            node, match, cost=cost, area=area, wire=wire, position=position
        )

    def cost_bound(self, match: Match, inputs: Sequence[Solution]) -> float:
        """``area + wire_weight * (input wire)``: the priced cost without
        the wire increment, which is >= 0."""
        area = match.cell.area + sum(s.area for s in inputs)
        return area + self.options.wire_weight * sum(s.wire for s in inputs)

    def hawk_solution(self, node: SubjectNode) -> Solution:
        """A hawk costs nothing more and sits at its mapPosition."""
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
    inchoate fanouts plus the placement-derived wire capacitance.  Every
    load reads its pins' caps and points from the net cache.
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
        wire_cap = wire_cap or WireCapModel()
        _check_bound_parameters(library, options)
        _check_model_names(options)
        _require_nonnegative(wire_cap.ch_per_um, "wire_cap.ch_per_um")
        _require_nonnegative(wire_cap.cv_per_um, "wire_cap.cv_per_um")
        _require_nonnegative(pad_cap, "pad_cap")
        kwargs.setdefault("use_cone_ordering", options.use_cone_ordering)
        super().__init__(library, **kwargs)
        self._init_lily(options, region, pad_positions)
        self.wire_cap = wire_cap
        self.input_arrivals = dict(input_arrivals or {})
        self.pad_cap = pad_cap
        #: Base-function input capacitance for egg/nestling fanouts.
        self._base_cap = library.nand2().pins[0].input_cap

    def _make_netcache(self) -> NetCache:
        # Plain data only: a cache holding the mapper would keep it alive
        # as long as anything holds the cache.
        return NetCache(self.state, self.lifecycle, self.instances,
                        self.pad_cap, self._base_cap)

    # -- Section 4 load and arrival machinery --------------------------------

    def _load_at_input(
        self,
        fanin: SubjectNode,
        pin_cap: float,
        covered_uids: AbstractSet[int],
        gate_position: Point,
        fanin_position: Point,
    ) -> float:
        """Current load at a match input (Section 4.4, step 1).

        gate(m)'s pin cap, then the caps of the fanin's true fanouts that
        the match does not cover (in uid order), then the wire cap of the
        box around the fanin, gate(m) and those fanouts.  The box folds
        with strict comparisons from the fanin's point, as ``min`` and
        ``max`` do over the points in that order.
        """
        uids, xs, ys, caps = self._netcache.entry(fanin)
        cap = pin_cap
        lx = ux = fanin_position.x
        ly = uy = fanin_position.y
        gx, gy = gate_position.x, gate_position.y
        if gx < lx:
            lx = gx
        elif gx > ux:
            ux = gx
        if gy < ly:
            ly = gy
        elif gy > uy:
            uy = gy
        for uid, c, x, y in zip(uids, caps, xs, ys):
            if uid in covered_uids:
                continue
            cap += c
            if x < lx:
                lx = x
            elif x > ux:
                ux = x
            if y < ly:
                ly = y
            elif y > uy:
                uy = y
        cap += self.wire_cap.capacitance(ux - lx, uy - ly)
        return cap

    def _output_load(
        self,
        node: SubjectNode,
        covered_uids: AbstractSet[int],
        gate_position: Point,
    ) -> float:
        """Step 3: output load of gate(m) from the inchoate fanouts.

        The caps of ``node``'s direct fanouts that the match does not
        cover, in fanout order (a PO pad's cap if there are none), then
        the wire cap of the box around gate(m) and those fanouts.
        """
        uids, xs, ys, caps = self._netcache.out_entry(node)
        cap = 0.0
        lx = ux = gate_position.x
        ly = uy = gate_position.y
        sinks = 0
        for uid, c, x, y in zip(uids, caps, xs, ys):
            if uid in covered_uids:
                continue
            sinks += 1
            cap += c
            if x < lx:
                lx = x
            elif x > ux:
                ux = x
            if y < ly:
                ly = y
            elif y > uy:
                uy = y
        if not sinks:
            cap += self.pad_cap  # and a one-point net has no wire
            return cap
        cap += self.wire_cap.capacitance(ux - lx, uy - ly)
        return cap

    @staticmethod
    def _recalculated_arrival(solution: Solution, load: float) -> float:
        """Output arrival of a match input under a known load.

        Only the load-dependent ``R_i * C_L`` part is recomputed; the block
        arrival times ``b_i`` are fixed (the LI/LD split of Section 4.3).
        """
        blocks = solution.block_arrivals
        if blocks is None or solution.match is None:
            return solution.arrival  # PI, constant, or positionless leaf
        # The first maximum, as max() keeps it.
        arrival = None
        for b, pin in zip(blocks, solution.match.cell.pins):
            t = b + pin.timing.worst_resistance * load
            if arrival is None or t > arrival:
                arrival = t
        return arrival

    # -- DP hooks ---------------------------------------------------------------

    def cost_bound(self, match: Match, inputs: Sequence[Solution]) -> float:
        """``max_i(t_in_i(pin_cap_i) + I_i)``: the priced arrival with each
        input's load cut to gate(m)'s own pin cap, and without the
        ``R_i * C_out`` terms.  Every term left out is >= 0."""
        bound = float("-inf")
        recalculated = self._recalculated_arrival
        for pin, solution in zip(match.cell.pins, inputs):
            block = (recalculated(solution, pin.input_cap)
                     + pin.timing.worst_block)
            if block > bound:
                bound = block
        return bound

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """Output arrival of ``match`` by the Section 4.4 procedure."""
        covered_uids = {n.uid for n in match.covered}
        position = self._tentative_position(node, match, inputs,
                                            covered_uids)
        pins = match.cell.pins
        blocks: List[float] = []
        for pin_index, fanin in enumerate(match.inputs):
            solution = inputs[pin_index]
            pin = pins[pin_index]
            load = self._load_at_input(
                fanin, pin.input_cap, covered_uids, position,
                self._input_position(fanin, solution))
            t_in = self._recalculated_arrival(solution, load)
            blocks.append(t_in + pin.timing.worst_block)
        output_load = self._output_load(node, covered_uids, position)
        arrival = max(
            b + pin.timing.worst_resistance * output_load
            for b, pin in zip(blocks, pins)
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
        """A primary input arrives at its given time, at its pad."""
        arrival = self.input_arrivals.get(node.name, 0.0)
        position = (
            self.state.place_position(node) if self.state is not None else None
        )
        return Solution(
            node, None, cost=arrival, arrival=arrival, position=position
        )

    def hawk_solution(self, node: SubjectNode) -> Solution:
        """A hawk at its mapPosition, with its committed gate's arrival
        and block arrivals (to recalculate under a new load)."""
        instance = self.instances[node.uid]
        committed = self.committed[node.uid]
        arrival = instance.arrival if instance.arrival is not None else 0.0
        return Solution(
            node,
            committed.match,
            cost=arrival,
            arrival=arrival,
            position=self.state.map_position(node),
            block_arrivals=committed.block_arrivals,
        )
