"""Lily without the cross-cone net cache, solution reuse or bounded
pricing, on the Section 3.3–3.4 primitives: the oracle of the cached
costs.

Production Lily prices every :class:`~repro.core.lily.LilyOptions`
combination from :class:`repro.perf.netcache.NetCache` entries (the
input nets' boxes, the output net's box, the cached pin caps), keeps DP
solutions across cones until a commit changes a net they priced, and
skips the matches an exact lower bound rules out.  This module keeps the
paper's primitives written out: the true-fanout walk
(:func:`true_fanouts`), the fan rectangles (:func:`fanin_rectangle`,
:func:`fanout_rectangle`) and the per-input wire estimate
(:func:`fanin_net_cost`, :func:`match_wire_cost`).  The naive mappers
below recompute true fanouts per cone (life-cycle states cannot change
within one), empty the solution memo before every cone, price every
match through :meth:`BaseMapper.best_solution` and position every
candidate from the rectangles; area mode prices the wire with
:func:`match_wire_cost`, delay mode with the per-consumer Section 4.4
loads.  So the golden tests compare the solution reuse, the cache, the
box folds and the bound against the Section 3/4 primitives solved from
scratch.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.core.position import cm_of_fans, cm_of_merged
from repro.core.state import PlacementState
from repro.geometry import Point, Rect, bounding_rect
from repro.map.base import BaseMapper, Solution
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.match.treematch import Match
from repro.network.subject import SubjectNode
from repro.route.spanning import rectilinear_mst_length
from repro.route.wirelength import chung_hwang_factor
from repro.timing.model import PAD_CAP

# -- true fanouts and fan rectangles (Section 3.3) -----------------------------


def true_fanouts(
    node: SubjectNode, lifecycle: LifecycleTracker
) -> List[SubjectNode]:
    """All true fanouts of ``node`` across its branches.

    The *true fanouts* of a node are the fanouts that would exist had
    mapping stopped after the previous cone: hawks, nestlings and eggs
    that consume the node's signal.  Primary outputs are terminals (pads)
    and always count.  A fanout that has become a dove was merged into
    some hawk, so the walk continues through it
    (``add-true-fanout-recursively``); logic duplication can yield more
    than one true fanout along a branch.
    """
    found: List[SubjectNode] = []
    seen: Set[int] = set()
    stack = list(node.fanouts)
    while stack:
        branch = stack.pop()
        if branch.uid in seen:
            continue
        seen.add(branch.uid)
        if branch.is_po or not branch.is_gate:
            found.append(branch)
            continue
        if lifecycle.state(branch) is NodeState.DOVE:
            stack.extend(branch.fanouts)
        else:
            found.append(branch)
    # Stable, deterministic order.
    found.sort(key=lambda n: n.uid)
    return found


def _node_point(
    node: SubjectNode,
    state: PlacementState,
    lifecycle: LifecycleTracker,
) -> Point:
    """mapPosition for hawks, placePosition (or pad) otherwise."""
    if node.is_gate and lifecycle.state(node) is NodeState.HAWK:
        p = state.map_position(node)
        if p is not None:
            return p
    return state.place_position(node)


def fanin_rectangle(
    fanin: SubjectNode,
    covered: Iterable[SubjectNode],
    state: PlacementState,
    lifecycle: LifecycleTracker,
    fanin_position: Optional[Point] = None,
    extra_point: Optional[Point] = None,
    consumers: Optional[List[SubjectNode]] = None,
) -> Rect:
    """Enclosing rectangle of a match input's output net (Section 3.3).

    The node list is the fanin's true fanouts, minus those covered by the
    candidate match, plus the fanin itself; ``extra_point`` (the candidate
    gate position) is included when estimating wire cost.  Rectangles use
    mapPositions for hawks (and for the fanin itself when
    ``fanin_position`` gives one) and placePositions for everything else.

    Args:
        fanin: the subject node feeding the candidate match.
        covered: nodes merged into the candidate match.
        state: current placement state.
        lifecycle: current life-cycle states.
        fanin_position: override for the fanin's own position — the
            (tentative) mapPosition of the best gate matching there.
        extra_point: candidate gate position to include, if any.
        consumers: precomputed ``true_fanouts(fanin, ...)``.
    """
    covered_set = {n.uid for n in covered}
    if consumers is None:
        consumers = true_fanouts(fanin, lifecycle)
    points: List[Point] = []
    for consumer in consumers:
        if consumer.uid in covered_set:
            continue
        points.append(_node_point(consumer, state, lifecycle))
    if fanin_position is not None:
        points.append(fanin_position)
    else:
        points.append(_node_point(fanin, state, lifecycle))
    if extra_point is not None:
        points.append(extra_point)
    return bounding_rect(points)


def fanout_rectangle(
    node: SubjectNode,
    covered: Iterable[SubjectNode],
    state: PlacementState,
    lifecycle: LifecycleTracker,
) -> Optional[Rect]:
    """Enclosing rectangle of the candidate match's output net.

    The outputs of the match root are eggs (depth-first ordering), so their
    placePositions are used directly; nodes merged into the match are
    excluded.  Returns ``None`` when every fanout is covered (the output is
    consumed entirely inside the match — only possible for the root of a
    cone, whose PO pad then provides the point).
    """
    covered_set = {n.uid for n in covered}
    points: List[Point] = []
    for sink in node.fanouts:
        if sink.uid in covered_set:
            continue
        points.append(_node_point(sink, state, lifecycle))
    if not points:
        return None
    return bounding_rect(points)


# -- wire cost of a candidate match (Section 3.4) ------------------------------


def fanin_net_cost(
    fanin: SubjectNode,
    match: Match,
    gate_position: Point,
    fanin_position: Point,
    state: PlacementState,
    lifecycle: LifecycleTracker,
    model: str = "halfperim",
    consumers: Optional[List[SubjectNode]] = None,
) -> float:
    """Expected wire length the match adds on one input net.

    ``halfperim``: the candidate gate position joins the fanin rectangle
    of ``fanin``; the rectangle's half-perimeter times the Chung–Hwang
    minimal-Steiner-tree-to-half-perimeter ratio [3] is divided by the
    net's fanout count (avoiding duplicate accounting across the fanouts
    that share the net).  ``spanning`` connects all pins of the net with
    a rectilinear spanning tree instead.
    """
    if consumers is None:
        consumers = true_fanouts(fanin, lifecycle)
    covered_set = {n.uid for n in match.covered}
    remaining = [c for c in consumers if c.uid not in covered_set]
    # The candidate gate joins the net as one more fanout.
    fanout_count = max(1, len(remaining) + 1)

    if model == "halfperim":
        rect = fanin_rectangle(
            fanin,
            match.covered,
            state,
            lifecycle,
            fanin_position=fanin_position,
            extra_point=gate_position,
            consumers=consumers,
        )
        pin_count = len(remaining) + 2  # fanin driver + gate(m)
        length = rect.half_perimeter * chung_hwang_factor(pin_count)
        return length / fanout_count
    if model == "spanning":
        points: List[Point] = [fanin_position, gate_position]
        for consumer in remaining:
            if consumer.is_gate and lifecycle.state(consumer) is NodeState.HAWK:
                p = state.map_position(consumer) or state.place_position(consumer)
            else:
                p = state.place_position(consumer)
            points.append(p)
        return rectilinear_mst_length(points) / fanout_count
    raise ValueError(f"unknown wire model: {model!r}")


def match_wire_cost(
    match: Match,
    gate_position: Point,
    input_positions: Sequence[Point],
    state: PlacementState,
    lifecycle: LifecycleTracker,
    model: str = "halfperim",
    consumers_of=None,
) -> float:
    """``wire(gate(m), gate(v_i))`` of the Section 3 cost recursion.

    Sums the expected input-net lengths over all match inputs.  Primary
    inputs use their pad positions; constants contribute nothing.
    ``consumers_of`` optionally supplies precomputed true-fanout lists.
    """
    total = 0.0
    for index, fanin in enumerate(match.inputs):
        if fanin.is_constant:
            continue
        consumers = consumers_of(fanin) if consumers_of is not None else None
        total += fanin_net_cost(
            fanin,
            match,
            gate_position,
            input_positions[index],
            state,
            lifecycle,
            model=model,
            consumers=consumers,
        )
    return total


# -- the naive mappers ---------------------------------------------------------


class _UncachedNets:
    """True fanouts from the lifecycle walk, never from the net cache,
    every cone solved from scratch, every match priced and every
    candidate positioned from its fan rectangles."""

    def on_cone_begin(self, po: SubjectNode) -> None:
        super().on_cone_begin(po)
        # The net cache never sees these reads, so its drops cannot
        # reach the memo: no solution may outlive its cone.
        self.memo.clear()
        self._cone_fanouts: Dict[int, List[SubjectNode]] = {}

    def _true_fanouts(self, node: SubjectNode) -> List[SubjectNode]:
        found = self._cone_fanouts.get(node.uid)
        if found is None:
            found = true_fanouts(node, self.lifecycle)
            self._cone_fanouts[node.uid] = found
        return found

    def best_solution(self, node: SubjectNode):
        return BaseMapper.best_solution(self, node)

    def _tentative_position(
        self,
        node: SubjectNode,
        match: Match,
        inputs: Sequence[Solution],
        covered_uids: Optional[AbstractSet[int]] = None,
        boxes=None,
    ) -> Point:
        """Section 3.2 over the rectangles of :func:`fanin_rectangle`
        and :func:`fanout_rectangle`, rebuilt for every match; the
        cached path's ``covered_uids`` and ``boxes`` go unread."""
        if self.options.position_update == "cm_of_merged":
            return cm_of_merged(match.covered, self.state)
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


class NaiveLilyAreaMapper(_UncachedNets, LilyAreaMapper):
    """Area-mode Lily on the Section 3 primitives, without ``NetCache``."""

    def evaluate_match(self, node, match, inputs):
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


class NaiveLilyDelayMapper(_UncachedNets, LilyDelayMapper):
    """Delay-mode Lily without ``NetCache``: every load re-derives each
    consumer's cap and point from its state, instance and position."""

    def _fanout_cap_and_point(
        self, consumer: SubjectNode
    ) -> Tuple[float, Point]:
        """Capacitance and position a true fanout contributes to a net."""
        if consumer.is_po:
            p = self.state.place_position(consumer)
            return PAD_CAP, p
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
        pin_cap: float,
        covered_uids: AbstractSet[int],
        gate_position: Point,
        fanin_position: Point,
    ) -> float:
        cap = pin_cap  # gate(m) itself
        points: List[Point] = [fanin_position, gate_position]
        for consumer in self._true_fanouts(fanin):
            if consumer.uid in covered_uids:
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

    def _output_load(
        self,
        node: SubjectNode,
        covered_uids: AbstractSet[int],
        gate_position: Point,
    ) -> float:
        cap = 0.0
        points: List[Point] = [gate_position]
        consumers = [s for s in node.fanouts if s.uid not in covered_uids]
        if not consumers:
            cap += PAD_CAP
        for consumer in consumers:
            c, p = self._fanout_cap_and_point(consumer)
            cap += c
            points.append(p)
        cap += self._wire_cap(points)
        return cap
