"""Micro-benchmarks of the individual substrates.

These are conventional pytest-benchmark timings (multiple rounds) of the
hot paths: decomposition, matching, the quadratic placement solve, the
left-edge channel router, STA and a full Lily map of a mid-size circuit.
The paper reports ~3 min for GORDIAN on C5315's 1892 gates and ~10 min
for the whole Lily run on a DEC3100; these give the Python equivalents.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import suite_circuit
from repro.area.estimate import subject_image
from repro.core.lily import LilyAreaMapper
from repro.library.patterns import pattern_set_for
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import subject_netlist
from repro.place.pads import io_affinity_order, pads_from_order
from repro.route.channel import left_edge_route
from repro.timing.sta import analyze


@pytest.fixture(scope="module")
def c880_subject():
    return decompose_to_subject(suite_circuit("C880"))


@pytest.fixture(scope="module")
def library():
    lib = big_library()
    pattern_set_for(lib)  # warm the cache outside the timed region
    return lib


def test_speed_decompose(benchmark):
    net = suite_circuit("C880")
    benchmark(lambda: decompose_to_subject(net))


def test_speed_matching(benchmark, c880_subject, library):
    patterns = pattern_set_for(library)

    def run():
        # A fresh matcher per round: a matcher keeps the lists it built.
        matcher = Matcher(patterns)
        return sum(
            len(matcher.matches_at(n))
            for n in c880_subject.nodes
            if n.is_gate
        )

    total = benchmark(run)
    assert total > 0


def test_speed_global_placement(benchmark, c880_subject):
    region = subject_image(len(c880_subject.gates))
    pads = pads_from_order(io_affinity_order(c880_subject), region)
    netlist = subject_netlist(c880_subject, pads)
    placer = GlobalPlacer()
    benchmark(lambda: placer.place(netlist, region))


def test_speed_left_edge(benchmark):
    intervals = {
        f"n{i}": ((i * 37) % 500.0, (i * 37) % 500.0 + 25 + (i % 60))
        for i in range(400)
    }
    benchmark(lambda: left_edge_route(intervals))


def test_speed_mis_map(benchmark, c880_subject, library):
    benchmark.pedantic(
        lambda: MisAreaMapper(library).map(c880_subject),
        rounds=3, iterations=1,
    )


def test_speed_lily_map(benchmark, c880_subject, library):
    benchmark.pedantic(
        lambda: LilyAreaMapper(library).map(c880_subject),
        rounds=2, iterations=1,
    )


def test_speed_sta(benchmark, c880_subject, library):
    mapped = MisAreaMapper(library).map(c880_subject).mapped
    benchmark(lambda: analyze(mapped, wire_model=None))


# -- observability overhead ---------------------------------------------------
#
# The instrumentation added in PR 1 must be free when disabled: hot loops
# pay one attribute load + truthy check per site.  These two benchmarks
# bracket the cost — the suite-default runs above execute with the session
# disabled (so their trend vs. earlier commits measures the disabled-mode
# overhead), and the *_observed variants show the full recording cost.


def test_speed_matching_observed(benchmark, c880_subject, library):
    from repro.obs import observed

    patterns = pattern_set_for(library)
    nodes = [n for n in c880_subject.nodes if n.is_gate]

    def run():
        matcher = Matcher(patterns)
        with observed():
            return sum(len(matcher.matches_at(n)) for n in nodes)

    total = benchmark(run)
    assert total > 0


def test_speed_mis_map_observed(benchmark, c880_subject, library):
    from repro.obs import observed

    def run():
        with observed():
            return MisAreaMapper(library).map(c880_subject)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_obs_disabled_is_default():
    """The suite benchmarks above must measure the disabled fast path."""
    from repro.obs import OBS

    assert not OBS.enabled
