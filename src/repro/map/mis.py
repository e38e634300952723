"""The MIS 2.1-style baseline mappers (no layout information).

* :class:`MisAreaMapper` — minimum total gate area, the classic DAG-covering
  objective ("generate circuits with small active cell area but ignore area
  and delay contributed by interconnections", Section 1).
* :class:`MisDelayMapper` — minimum arrival time under the linear delay
  model of Section 4.1, with MIS's load approximations: every gate presents
  the same constant input capacitance, and the wiring capacitance of a net
  is a user-set constant per fanout (Section 4.2: "In MIS, C_w is modeled
  as a function of n ... linear in n").
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.library.cell import Library
from repro.map.base import BaseMapper, Solution
from repro.match.treematch import Match
from repro.network.subject import SubjectNode
from repro.obs import OBS
from repro.timing.model import PAD_CAP

__all__ = ["MisAreaMapper", "MisDelayMapper", "inchoate_fanout_count",
           "estimated_load"]

#: Default wiring capacitance per fanout connection, pF (MIS's linear model).
DEFAULT_WIRE_CAP_PER_FANOUT = 0.05


def inchoate_fanout_count(node: SubjectNode) -> int:
    """Number of fanout connections of a node in N_inchoate."""
    return max(1, len(node.fanouts))


def estimated_load(node: SubjectNode, input_cap: float,
                   wire_cap_per_fanout: float) -> float:
    """MIS load model: constant cap per fanout gate + linear wire cap.

    Every fanout gate presents ``input_cap`` and every output pad
    :data:`~repro.timing.model.PAD_CAP` (a node without fanouts drives a
    pad); the wire adds ``wire_cap_per_fanout`` per fanout connection.
    """
    load = 0.0
    for sink in node.fanouts:
        load += PAD_CAP if sink.is_po else input_cap
    if not node.fanouts:
        load += PAD_CAP
    load += wire_cap_per_fanout * inchoate_fanout_count(node)
    return load


class MisAreaMapper(BaseMapper):
    """Minimum-gate-area covering; the cost hooks are the base defaults."""


class MisDelayMapper(BaseMapper):
    """Minimum-arrival covering with MIS's constant-load approximation.

    Args:
        library: target gate library.
        input_cap: the assumed constant gate input capacitance (pF);
            defaults to the library's most common pin capacitance.
        wire_cap_per_fanout: lumped wiring capacitance per fanout (pF).
        input_arrivals: optional arrival time per primary-input name.
    """

    def __init__(
        self,
        library: Library,
        input_cap: Optional[float] = None,
        wire_cap_per_fanout: float = DEFAULT_WIRE_CAP_PER_FANOUT,
        input_arrivals: Optional[Dict[str, float]] = None,
        **kwargs,
    ) -> None:
        super().__init__(library, **kwargs)
        if input_cap is None:
            input_cap = _typical_input_cap(library)
        self.input_cap = input_cap
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.input_arrivals = dict(input_arrivals or {})

    def estimated_load(self, node: SubjectNode) -> float:
        """:func:`estimated_load` of ``node`` under this mapper's caps."""
        return estimated_load(node, self.input_cap, self.wire_cap_per_fanout)

    def evaluate_match(
        self, node: SubjectNode, match: Match, inputs: Sequence[Solution]
    ) -> Solution:
        """Arrival of ``match``'s output: the latest, over its pins, of
        input arrival + block delay + drive resistance x estimated load."""
        if OBS.enabled:
            OBS.metrics.counter("mis.delay_evals").inc()
        load = self.estimated_load(node)
        arrival = 0.0
        for pin_index, input_solution in enumerate(inputs):
            timing = match.cell.pins[pin_index].timing
            pin_arrival = (
                input_solution.arrival
                + timing.worst_block
                + timing.worst_resistance * load
            )
            if pin_arrival > arrival:
                arrival = pin_arrival
        area = match.cell.area + sum(s.area for s in inputs)
        return Solution(node, match, cost=arrival, area=area, arrival=arrival)

    def leaf_solution(self, node: SubjectNode) -> Solution:
        """A primary input arrives at its given time (0 by default)."""
        arrival = self.input_arrivals.get(node.name, 0.0)
        return Solution(node, None, cost=arrival, area=0.0, arrival=arrival)

    def hawk_solution(self, node: SubjectNode) -> Solution:
        """A hawk's output arrives when its committed gate's does."""
        instance = self.instances[node.uid]
        arrival = instance.arrival if instance.arrival is not None else 0.0
        return Solution(node, None, cost=arrival, area=0.0, arrival=arrival)


def _typical_input_cap(library: Library) -> float:
    """Most common input-pin capacitance across the library."""
    counts: Dict[float, int] = {}
    for cell in library:
        for pin in cell.pins:
            counts[pin.input_cap] = counts.get(pin.input_cap, 0) + 1
    return max(counts.items(), key=lambda item: item[1])[0]
