"""Golden equivalence: every fast path is bit-identical to the naive one.

The goldens map with the naive matcher (``PerfOptions.naive()``) and,
for Lily, with the ``oracles.lily`` mappers, which price every match on
the general cost path without the cross-cone net cache.  The variants
flip only the matcher switches, so each one compares the matcher fast
paths plus Lily's net cache and fast evaluator against the naive code.

The DP cover breaks cost ties by scan order, positions feed back into
later cones, and the final netlist hashes all of it together — so the
fingerprints below (cells, fanins, exact positions, exact arrivals,
exact solution costs) catch any divergence, not just large ones.
"""

from __future__ import annotations

import pytest

from oracles.lily import NaiveLilyAreaMapper, NaiveLilyDelayMapper
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject
from repro.perf import PerfOptions

CIRCUITS = ["misex1", "b9", "apex7"]

VARIANTS = {
    "memo_only": PerfOptions(memoize_matches=True, index_patterns=False),
    "index_only": PerfOptions(memoize_matches=False, index_patterns=True),
    "matcher_naive": PerfOptions.naive(),
    "all_on": PerfOptions(),
    "parallel": PerfOptions().with_jobs(2),
}


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


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_lily_area_all_variants(subjects, big_lib, circuit):
    subject = subjects[circuit]
    golden = _fingerprint(
        NaiveLilyAreaMapper(big_lib, perf=PerfOptions.naive()).map(subject)
    )
    for name, perf in VARIANTS.items():
        fp = _fingerprint(LilyAreaMapper(big_lib, perf=perf).map(subject))
        assert fp == golden, f"{circuit}/{name} diverged from naive"


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_mis_area_fast_vs_naive(subjects, big_lib, circuit):
    subject = subjects[circuit]
    golden = _fingerprint(
        MisAreaMapper(big_lib, perf=PerfOptions.naive()).map(subject)
    )
    fast = _fingerprint(MisAreaMapper(big_lib).map(subject))
    assert fast == golden


def test_delay_mappers_fast_vs_naive(subjects, big_lib):
    subject = subjects["misex1"]
    for cls, oracle in ((LilyDelayMapper, NaiveLilyDelayMapper),
                        (MisDelayMapper, MisDelayMapper)):
        golden = _fingerprint(
            oracle(big_lib, perf=PerfOptions.naive()).map(subject)
        )
        for name, perf in VARIANTS.items():
            fp = _fingerprint(cls(big_lib, perf=perf).map(subject))
            assert fp == golden, f"{cls.__name__}/{name} diverged"


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
    """End-to-end: mapping with the matcher fast paths on lands on the
    bitwise-identical layout the naive matcher produces (the backend
    kernels have one path each; their oracles live in the placement,
    routing and timing tests)."""
    from repro.flow.pipeline import lily_flow, mis_flow

    net = build_circuit("misex1")
    for runner in (mis_flow, lily_flow):
        fast = runner(net, big_lib, verify=False, perf=PerfOptions())
        naive = runner(net, big_lib, verify=False, perf=PerfOptions.naive())
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
