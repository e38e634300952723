"""Cross-cone solution reuse against the per-cone oracle.

The tree and cut covering DPs keep their solutions across cones
(:class:`repro.map.base.SolutionMemo`): an entry is dropped only when a
node it read has become a hawk.  The oracle subclasses below empty the
memo before every cone, which is how both DPs worked before reuse, and
every cover must come out identical: mapped BLIF, cut-cover records,
cone order and the lifecycle history, transition for transition.

The DP counters must add up too: every non-hawk node of a cone walk is
either solved or reused, so ``nodes_visited + solutions_reused`` with
reuse equals ``nodes_visited`` of the oracle, which never reuses.

Cases: small and mid-size Table 1/2 circuits, two ``synth:SEED:GATES``
sizes (seeds derived from the session seed) and the random fleet, each
in tree area/delay and cuts area/timing.  Lily opts out of reuse; the
last test pins that it solves every cone from scratch.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import CutMapper
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS, observed

pytestmark = [pytest.mark.property, pytest.mark.slow]

TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "19910611"))

#: Table 1/2 circuits from 83 to 451 subject gates.
SUITE_CIRCUITS = ["misex1", "b9", "apex7", "C432", "C880", "e64"]
SYNTH_SPECS = [f"synth:{(TEST_SEED + i) % 100000}:{gates}"
               for i, gates in enumerate((60, 150))]
FLEET_CASES = 12


class PerConeAreaMapper(MisAreaMapper):
    """Oracle: the tree area DP re-solving every cone from scratch."""

    def on_cone_begin(self, po) -> None:
        self.memo.clear()


class PerConeDelayMapper(MisDelayMapper):
    """Oracle: the tree delay DP re-solving every cone from scratch."""

    def on_cone_begin(self, po) -> None:
        self.memo.clear()


class PerConeCutMapper(CutMapper):
    """Oracle: the cut DP re-solving every cone from scratch."""

    def _solve_cone(self, root) -> None:
        self.memo.clear()
        super()._solve_cone(root)


#: variant -> (mapper, oracle, counter prefix), each built from a library.
VARIANTS = {
    "tree-area": (MisAreaMapper, PerConeAreaMapper, "dp."),
    "tree-delay": (MisDelayMapper, PerConeDelayMapper, "dp."),
    "cuts-area": (CutMapper, PerConeCutMapper, "cut."),
    "cuts-timing": (lambda lib: CutMapper(lib, mode="timing"),
                    lambda lib: PerConeCutMapper(lib, mode="timing"),
                    "cut."),
}


def _map(make, library, net):
    """(fingerprint, counters) of one observed mapping run."""
    with observed():
        result = make(library).map(decompose_to_subject(net))
        counters = OBS.metrics.snapshot_counters()
    fingerprint = {
        "blif": write_mapped_blif(result.mapped),
        "cut_cover": [repr(r) for r in getattr(result, "cut_cover", [])],
        "cone_order": list(result.cone_order),
        "history": [(uid, a.value, b.value)
                    for uid, a, b in result.lifecycle.history],
    }
    return fingerprint, counters, result.lifecycle.reincarnations


def _assert_reuse_matches_oracle(net, library, variant, label):
    make, make_oracle, prefix = VARIANTS[variant]
    got, counters, reincarnations = _map(make, library, net)
    want, oracle_counters, _ = _map(make_oracle, library, net)
    for field in ("blif", "cut_cover", "cone_order", "history"):
        assert got[field] == want[field], (
            f"{label} {variant}: {field} differs from the per-cone oracle")
    visited = counters.get(prefix + "nodes_visited", 0)
    reused = counters.get(prefix + "solutions_reused", 0)
    assert visited + reused == oracle_counters[prefix + "nodes_visited"], (
        f"{label} {variant}: solved + reused != oracle solves")
    assert oracle_counters.get(prefix + "solutions_reused", 0) == 0
    return reincarnations, visited, oracle_counters[prefix + "nodes_visited"]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("circuit", SUITE_CIRCUITS)
def test_suite_reuse_matches_per_cone_oracle(circuit, variant,
                                             fleet_library):
    reincarnations, visited, oracle_visited = _assert_reuse_matches_oracle(
        build_circuit(circuit), fleet_library, variant, circuit)
    if circuit == "C880":
        # Shared logic is duplicated here, and reuse saves real work.
        assert reincarnations > 0
        assert visited < oracle_visited


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("spec", SYNTH_SPECS)
def test_synth_reuse_matches_per_cone_oracle(spec, variant, fleet_library):
    _assert_reuse_matches_oracle(
        build_circuit(spec), fleet_library, variant,
        f"{spec} [replay: REPRO_TEST_SEED={TEST_SEED}]")


@pytest.mark.parametrize("case", range(FLEET_CASES))
def test_fleet_reuse_matches_per_cone_oracle(case, fleet_case, replay_hint,
                                             fleet_library):
    net, _rng = fleet_case("reuse", case)
    for variant in sorted(VARIANTS):
        _assert_reuse_matches_oracle(net, fleet_library, variant,
                                     replay_hint("reuse", case))


def test_lily_solves_every_cone_from_scratch(fleet_library):
    """Lily's costs read placements that every commit moves, so it
    empties the memo at each cone and never reuses a solution."""
    with observed():
        LilyAreaMapper(fleet_library).map(
            decompose_to_subject(build_circuit("b9")))
        counters = OBS.metrics.snapshot_counters()
    assert counters["dp.nodes_visited"] > 0
    assert counters.get("dp.solutions_reused", 0) == 0
    assert counters.get("dp.solutions_invalidated", 0) == 0
