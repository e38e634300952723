"""Wire-cost estimation for a candidate match (Section 3.4).

For each fanin ``v_i`` of match ``m``, the candidate gate position is added
to the fanin rectangle of ``v_i``; the expected length contributed by the
input net is the rectangle's half-perimeter divided by the true-fanout
count at ``v_i`` (avoiding duplicate accounting across the fanouts that
share the net), multiplied by the Chung–Hwang minimal-Steiner-tree-to-
half-perimeter ratio [3].  The alternative model connects all pins of the
net with a rectilinear spanning tree instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.geometry import Point
from repro.core.rectangles import fanin_rectangle, true_fanouts
from repro.core.state import PlacementState
from repro.map.lifecycle import LifecycleTracker, NodeState
from repro.match.treematch import Match
from repro.network.subject import SubjectNode
from repro.route.spanning import rectilinear_mst_length
from repro.route.wirelength import chung_hwang_factor

__all__ = ["match_wire_cost", "fanin_net_cost"]


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
    """Expected wire length the match adds on one input net."""
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
    ``consumers_of`` optionally supplies cached true-fanout lists.
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
