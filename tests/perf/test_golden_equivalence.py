"""Golden equivalence: every fast path is bit-identical to the naive one.

The goldens map with the recursive oracle matcher (``oracles.match``)
and, for Lily, with the ``oracles.lily`` mappers, which price every
match (no bound) without the cross-cone net cache and position every
candidate from the Section 3.3 rectangles: area mode with the Section
3.4 wire cost, delay mode with per-consumer loads.  So each comparison
checks the table matcher plus Lily's net cache, box folds, cached loads
and bounded pricing against the naive code, under every position
update, norm and wire model.  The variants map with a fresh mapper and
with one that mapped another circuit first, whose matcher must rebuild
its tables for the new subject graph.

The DP cover breaks cost ties by scan order, positions feed back into
later cones, and the final netlist hashes all of it together — so the
fingerprints below (cells, fanins, exact positions, exact arrivals,
exact solution costs) catch any divergence, not just large ones.
"""

from __future__ import annotations

from functools import partial

import pytest

from oracles.lily import NaiveLilyAreaMapper, NaiveLilyDelayMapper
from oracles.match import OracleMatcher
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.library.patterns import pattern_set_for
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject

CIRCUITS = ["misex1", "b9", "apex7"]

#: Lily's position variants: (position_update, norm).  CM-of-Merged
#: reads no norm.
POSITIONS = {
    "cm_of_fans-manhattan": ("cm_of_fans", "manhattan"),
    "cm_of_fans-euclidean": ("cm_of_fans", "euclidean"),
    "cm_of_merged": ("cm_of_merged", "manhattan"),
}


def _fresh(cls, library, other):
    return cls(library)


def _reused(cls, library, other):
    """A mapper whose matcher already holds another graph's tables."""
    mapper = cls(library)
    mapper.map(other)
    return mapper


VARIANTS = {"fresh": _fresh, "reused": _reused}


def _oracle(cls, library):
    return cls(library, matcher=OracleMatcher(pattern_set_for(library)))


def _fingerprint(result):
    rows = []
    for g in sorted(result.mapped.gates, key=lambda g: g.name):
        pos = g.position
        rows.append(
            (
                g.name,
                g.cell.name,
                tuple(f.name for f in g.fanins),
                None if pos is None else (pos.x, pos.y),
                g.arrival,
            )
        )
    total_area = sum(g.cell.area for g in result.mapped.gates)
    return tuple(rows), total_area, tuple(result.cone_order)


@pytest.fixture(scope="module")
def subjects():
    return {
        name: decompose_to_subject(build_circuit(name)) for name in CIRCUITS
    }


def _assert_matches_oracle(subjects, big_lib, circuit, cls, oracle, label):
    """Fresh and reused ``cls`` mappers reproduce ``oracle``'s cover."""
    subject = subjects[circuit]
    golden = _fingerprint(_oracle(oracle, big_lib).map(subject))
    other = subjects[CIRCUITS[CIRCUITS.index(circuit) - 1]]
    for name, variant in VARIANTS.items():
        mapper = variant(cls, big_lib, other)
        fp = _fingerprint(mapper.map(subject))
        assert fp == golden, f"{circuit} {label}/{name} diverged from naive"


def _lily_pair(fast, naive, position, **options):
    """``fast`` and ``naive`` Lily mappers under one option set."""
    update, norm = POSITIONS[position]
    options = LilyOptions(position_update=update, norm=norm, **options)
    return partial(fast, options=options), partial(naive, options=options)


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_lily_area_all_variants(subjects, big_lib, circuit):
    """The default options: CM-of-Fans, Manhattan, halfperim."""
    _assert_matches_oracle(subjects, big_lib, circuit, LilyAreaMapper,
                           NaiveLilyAreaMapper, "lily-area")


@pytest.mark.parametrize("circuit", CIRCUITS)
@pytest.mark.parametrize("position, wire_model", [
    (position, wire_model)
    for position in POSITIONS for wire_model in ("halfperim", "spanning")
    if (position, wire_model) != ("cm_of_fans-manhattan", "halfperim")
])
def test_lily_area_option_variants(subjects, big_lib, circuit, position,
                                   wire_model):
    """Every other position variant and wire model (the default is
    ``test_lily_area_all_variants``)."""
    fast, naive = _lily_pair(LilyAreaMapper, NaiveLilyAreaMapper, position,
                             wire_model=wire_model)
    _assert_matches_oracle(subjects, big_lib, circuit, fast, naive,
                           f"lily-area/{position}/{wire_model}")


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_mis_area_fast_vs_naive(subjects, big_lib, circuit):
    subject = subjects[circuit]
    golden = _fingerprint(_oracle(MisAreaMapper, big_lib).map(subject))
    fast = _fingerprint(MisAreaMapper(big_lib).map(subject))
    assert fast == golden


def test_delay_mappers_fast_vs_naive(subjects, big_lib):
    """The MIS delay mapper (Lily's delay mode is
    ``test_lily_delay_positions_fast_vs_naive``)."""
    for circuit in CIRCUITS:
        _assert_matches_oracle(subjects, big_lib, circuit, MisDelayMapper,
                               MisDelayMapper, "mis-delay")


@pytest.mark.parametrize("circuit", CIRCUITS)
@pytest.mark.parametrize("position", list(POSITIONS))
def test_lily_delay_positions_fast_vs_naive(subjects, big_lib, circuit,
                                            position):
    """Lily delay mode under each position variant (``lily_flow`` maps
    timing with CM-of-Merged; CM-of-Fans is the options' default)."""
    fast, naive = _lily_pair(LilyDelayMapper, NaiveLilyDelayMapper,
                             position)
    _assert_matches_oracle(subjects, big_lib, circuit, fast, naive,
                           f"lily-delay/{position}")


def _backend_fingerprint(flow):
    """Exact layout state after the full backend: placement, wire, delay."""
    detailed = flow.backend.detailed
    rows = tuple(
        (row.index, tuple(row.cells), tuple(sorted(row.x_spans.items())))
        for row in detailed.rows
    )
    positions = tuple(sorted(
        (name, p.x, p.y) for name, p in detailed.positions.items()
    ))
    return (rows, positions, flow.wire_length_mm, flow.chip_area_mm2,
            flow.delay)


def test_full_flow_fast_vs_naive(big_lib):
    """End-to-end: mapping with the table matcher lands on the
    bitwise-identical layout the oracle matcher produces (the backend
    kernels have one path each; their oracles live in the placement,
    routing and timing tests)."""
    from repro.flow.pipeline import lily_flow, mis_flow

    net = build_circuit("misex1")
    for runner in (mis_flow, lily_flow):
        fast = runner(net, big_lib, verify=False)
        naive = runner(net, big_lib, verify=False,
                       matcher=OracleMatcher(pattern_set_for(big_lib)))
        assert _backend_fingerprint(fast) == _backend_fingerprint(naive), (
            f"{runner.__name__} backend diverged from naive"
        )


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_fast_audit_of_fast_path_results(subjects, big_lib, circuit):
    """Fast-path results don't just match the naive fingerprint — they
    also pass the full fast-tier ``repro.verify`` audit (structural
    invariants + source↔mapped equivalence), so perf work inherits the
    checkers automatically."""
    from repro.verify import audit_mapping

    net = build_circuit(circuit)
    for cls in (LilyAreaMapper, MisAreaMapper):
        result = cls(big_lib).map(subjects[circuit])
        report = audit_mapping(result, net=net, level="fast")
        report.raise_on_failure()
