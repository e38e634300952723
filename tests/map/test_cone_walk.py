"""The covering driver walks each logic cone and stores no cone sets.

``logic_cones`` builds one gate set per output (102 MB at 10k gates);
the driver needs them only for Section 3.5's cone order, which is off
by default.  Each cone's DP walks the same gate set, so the
``cone_size`` histograms read their samples from that walk.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper
from repro.map import cones
from repro.map.cuts import CutMapper
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject
from repro.network.subject import SubjectGraph
from repro.obs import OBS, observed
from repro.obs.metrics import Histogram
from repro.verify import check_cone_partition

MAPPERS = {
    "tree-area": MisAreaMapper,
    "tree-delay": MisDelayMapper,
    "cuts": CutMapper,
    "lily-area": LilyAreaMapper,
}


class _Recorder(Histogram):
    """A histogram that also keeps its samples in order."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        super().__init__()
        self.values = []

    def observe(self, value) -> None:
        self.values.append(value)
        super().observe(value)


def _refuse(*_args, **_kwargs):
    raise AssertionError("logic_cones called")


def _with_terminal_outputs():
    """Gate cones plus outputs driven by a primary input and a constant."""
    g = SubjectGraph("terminal_outputs")
    a, b, c = (g.add_primary_input(x) for x in "abc")
    shared = g.nand(a, b)
    g.add_primary_output("f", g.inv(shared))
    g.add_primary_output("g", g.nand(shared, c))
    g.add_primary_output("p", a)
    g.add_primary_output("k", g.constant(True))
    return g


@pytest.fixture(scope="module")
def misex1_subject():
    return decompose_to_subject(build_circuit("misex1"))


@pytest.mark.parametrize("kind", sorted(MAPPERS))
def test_driver_calls_no_logic_cones(kind, misex1_subject, big_lib,
                                     monkeypatch):
    monkeypatch.setattr(cones, "logic_cones", _refuse)
    mapper = MAPPERS[kind](big_lib)
    assert not mapper.use_cone_ordering
    result = mapper.map(misex1_subject)
    assert result.cone_order == list(
        range(len(misex1_subject.primary_outputs)))


def test_cone_ordering_still_builds_the_cone_sets(misex1_subject, big_lib,
                                                  monkeypatch):
    calls = []
    build = cones.logic_cones

    def spy(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(cones, "logic_cones", spy)
    MisAreaMapper(big_lib, use_cone_ordering=True).map(misex1_subject)
    assert calls == [misex1_subject]


@pytest.mark.parametrize("kind, prefix", [("tree-area", "dp"),
                                          ("cuts", "cut")])
@pytest.mark.parametrize("graph", ["misex1", "terminal_outputs"])
def test_cone_size_samples_are_cone_gate_counts(kind, prefix, graph,
                                                misex1_subject, big_lib):
    subject = (misex1_subject if graph == "misex1"
               else _with_terminal_outputs())
    with observed():
        recorder = OBS.metrics.histograms[f"{prefix}.cone_size"] = \
            _Recorder()
        MAPPERS[kind](big_lib).map(subject)
    assert recorder.values == [len(subject.cone_nodes(po))
                               for po in subject.primary_outputs]


def test_cone_partition_audit_builds_one_cone_at_a_time(misex1_subject,
                                                        monkeypatch):
    monkeypatch.setattr(cones, "logic_cones", _refuse)
    (result,) = check_cone_partition(misex1_subject)
    assert result.name == "invariant.cones.partition"
    assert result.passed, str(result)
