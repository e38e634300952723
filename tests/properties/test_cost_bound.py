"""Lily's cost bounds never exceed the priced cost, bit for bit.

Production Lily (``_LilyMixin.best_solution``) prices a node's matches in
ascending ``cost_bound`` order and stops at the first bound above the
best cost found.  That keeps every choice exact only if each bound is
<= the cost ``evaluate_match`` then prices for the same match.  The
subclasses below price every match through
:meth:`repro.map.base.BaseMapper.best_solution` and assert that for each
one; the covers they choose must also equal the bounded mappers' covers.

Cases: misex1, b9, apex7 and the random fleet, in area mode under both
wire models x both position updates x ``wire_weight`` 0, 2 and 16, and in
delay mode under both position updates.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.map.base import BaseMapper
from repro.map.blif_io import write_mapped_blif
from repro.network.decompose import decompose_to_subject

pytestmark = [pytest.mark.property, pytest.mark.slow]

CIRCUITS = ["misex1", "b9", "apex7"]
FLEET_CASES = 8


class _BoundChecked:
    """Prices every match and checks its bound against its cost."""

    checked = 0

    def best_solution(self, node):
        return BaseMapper.best_solution(self, node)

    def evaluate_match(self, node, match, inputs):
        bound = self.cost_bound(match, inputs)
        solution = super().evaluate_match(node, match, inputs)
        assert bound <= solution.cost, (
            f"bound {bound!r} > cost {solution.cost!r} for {match}")
        self.checked += 1
        return solution


class BoundCheckedLilyAreaMapper(_BoundChecked, LilyAreaMapper):
    """Area-mode Lily pricing every match, bound asserted."""


class BoundCheckedLilyDelayMapper(_BoundChecked, LilyDelayMapper):
    """Delay-mode Lily pricing every match, bound asserted."""


#: variant -> (bounded mapper, bound-checked mapper, ``LilyOptions``).
VARIANTS = {
    f"area-{model}-{update}-w{weight}": (
        LilyAreaMapper, BoundCheckedLilyAreaMapper,
        LilyOptions(wire_model=model, position_update=f"cm_of_{update}",
                    wire_weight=float(weight)))
    for model in ("halfperim", "spanning")
    for update in ("fans", "merged")
    for weight in (0, 2, 16)
}
VARIANTS.update({
    f"delay-{update}": (
        LilyDelayMapper, BoundCheckedLilyDelayMapper,
        LilyOptions(position_update=f"cm_of_{update}"))
    for update in ("fans", "merged")
})


def _cover(result):
    return (write_mapped_blif(result.mapped),
            [(g.name, g.position, g.arrival) for g in result.mapped.gates])


def _check(net, library, variant, label):
    bounded, checked, options = VARIANTS[variant]
    subject = decompose_to_subject(net)
    mapper = checked(library, options=options)
    want = _cover(mapper.map(subject))
    assert mapper.checked > 0
    got = _cover(bounded(library, options=options).map(subject))
    assert got == want, f"{label} {variant}: the bound changed the cover"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_suite_bound_below_cost(circuit, variant, fleet_library):
    _check(build_circuit(circuit), fleet_library, variant, circuit)


@pytest.mark.parametrize("case", range(FLEET_CASES))
def test_fleet_bound_below_cost(case, fleet_case, replay_hint,
                                fleet_library):
    net, _rng = fleet_case("bound", case)
    for variant in sorted(VARIANTS):
        _check(net, fleet_library, variant, replay_hint("bound", case))
