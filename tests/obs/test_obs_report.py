"""ObsReport aggregation and the instrumented flow integration."""

from __future__ import annotations

import json

import pytest

from repro.circuits.suite import build_circuit
from repro.flow.pipeline import lily_flow, mis_flow
from repro.library.standard import big_library
from repro.obs import OBS, ObsSession, build_report, merge_reports, observed
from repro.obs.metrics import HIST_GROWTH


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


@pytest.fixture(autouse=True)
def _leave_singleton_disabled():
    yield
    OBS.disable()


@pytest.fixture(scope="module")
def net():
    return build_circuit("misex1")


@pytest.fixture(scope="module")
def library():
    return big_library()


class TestBuildReport:
    def _session(self):
        clock = FakeClock()
        session = ObsSession(clock=clock)
        session.enable()
        return session, clock

    def test_phase_aggregation(self):
        session, clock = self._session()
        with session.span("flow", mapper="mis", circuit="x") as root:
            with session.span("map"):
                clock.advance(2.0)
                with session.span("place.quadratic"):
                    clock.advance(1.0)
                with session.span("place.quadratic"):
                    clock.advance(1.0)
            with session.span("backend"):
                clock.advance(4.0)
        report = build_report(root, session)
        assert report.flow == "mis"
        assert report.circuit == "x"
        assert report.wall_s == 8.0
        top = [p for p in report.phases if p.depth == 1]
        assert [p.path for p in top] == ["map", "backend"]
        assert report.phase("map").total_s == 4.0
        assert report.phase("map").exclusive_s == 2.0
        # Repeated same-name children aggregate into one row.
        quad = report.phase("map/place.quadratic")
        assert quad.count == 2
        assert quad.total_s == 2.0
        assert report.phase_total() == 8.0

    def test_counter_deltas(self):
        session, _clock = self._session()
        session.metrics.counter("match.calls").inc(10)
        before = session.metrics.snapshot_counters()
        with session.span("flow") as root:
            session.metrics.counter("match.calls").inc(5)
            session.metrics.counter("dp.cones").inc(2)
        report = build_report(root, session, before)
        assert report.counters == {"match.calls": 5, "dp.cones": 2}

    def test_histogram_deltas(self):
        session, _clock = self._session()
        hist = session.metrics.histogram("dp.cone_size")
        hist.observe(1)
        hist.observe(100)
        session.metrics.histogram("idle").observe(3)
        before = session.metrics.snapshot_histograms()
        with session.span("flow") as root:
            for value in (5, 7, 9):
                hist.observe(value)
        report = build_report(root, session, histograms_before=before)
        assert "idle" not in report.histograms
        got = report.histograms["dp.cone_size"]
        assert got["count"] == 3
        assert got["sum"] == 21
        assert sum(got["buckets"].values()) == 3
        # Extremes are the difference buckets' bounds, clamped.
        assert 5 / HIST_GROWTH <= got["min"] <= 5
        assert 9 <= got["max"] <= 9 * HIST_GROWTH
        assert got["min"] <= got["p50"] <= got["max"]

    def test_first_observation_keeps_exact_extremes(self):
        session, _clock = self._session()
        before = session.metrics.snapshot_histograms()
        with session.span("flow") as root:
            session.metrics.histogram("dp.cone_size").observe(4)
            session.metrics.histogram("dp.cone_size").observe(6)
        got = build_report(root, session, histograms_before=before) \
            .histograms["dp.cone_size"]
        assert (got["count"], got["min"], got["max"]) == (2, 4, 6)

    def test_to_dict_is_json_ready(self):
        session, clock = self._session()
        with session.span("flow") as root:
            with session.span("map"):
                clock.advance(1.0)
        session.metrics.gauge("place.levels").set(3)
        session.metrics.histogram("dp.cone_size").observe(7)
        report = build_report(root, session, flow="lily", circuit="b9")
        parsed = json.loads(report.to_json())
        assert parsed["flow"] == "lily"
        assert parsed["phases"][0]["path"] == "map"
        assert parsed["gauges"]["place.levels"] == 3
        assert parsed["histograms"]["dp.cone_size"]["count"] == 1


class TestFlowIntegration:
    def test_flow_without_observability_has_no_report(self, net, library):
        result = mis_flow(net, library, verify=False)
        assert result.obs is None
        assert result.runtime_s > 0

    def test_mis_flow_report(self, net, library):
        with observed():
            result = mis_flow(net, library, verify=False)
        report = result.obs
        assert report is not None
        assert report.flow == "mis"
        assert report.circuit == net.name
        # The phase table accounts for the measured runtime.
        assert report.phase_total() == pytest.approx(
            result.runtime_s, rel=0.10
        )
        top = {p.path for p in report.phases if p.depth == 1}
        assert {"decompose", "patterns", "map", "backend", "verify"} <= top
        # The mapper's work is visible in the counters.
        assert report.counters["dp.cones"] > 0
        assert report.counters["dp.states_expanded"] > 0
        assert report.counters["match.calls"] > 0
        assert report.counters["sta.node_visits"] > 0
        assert report.counters["route.nets_routed"] > 0
        assert report.counters["lifecycle.nestling_to_hawk"] > 0

    def test_lily_flow_report(self, net, library):
        with observed():
            result = lily_flow(net, library, verify=False)
        report = result.obs
        assert report is not None
        assert report.flow == "lily"
        assert report.phase_total() == pytest.approx(
            result.runtime_s, rel=0.10
        )
        assert report.phase("map/lily.initial_place") is not None
        assert report.counters["lily.position_evals"] > 0
        # Lily keeps DP solutions across cones and drops the ones a
        # commit's net changes reach.
        assert report.counters["dp.solutions_reused"] > 0
        assert report.counters["dp.solutions_invalidated"] > 0

    def test_consecutive_flows_have_separate_counters(self, net, library):
        with observed():
            mis = mis_flow(net, library, verify=False)
            lily = lily_flow(net, library, verify=False)
        # Lily's counters must not include MIS's work.
        assert "lily.position_evals" not in mis.obs.counters
        assert lily.obs.counters["dp.cones"] == mis.obs.counters["dp.cones"]

    def test_consecutive_flows_have_separate_histograms(self, net, library):
        """The second flow's histograms hold its own observations only,
        so merging both reports counts every cone exactly once."""
        with observed():
            mis = mis_flow(net, library, verify=False)
            lily = lily_flow(net, library, verify=False)
        for report in (mis.obs, lily.obs):
            assert report.histograms["dp.cone_size"]["count"] == \
                report.counters["dp.cones"] == len(net.primary_outputs)
        merged = merge_reports([mis.obs, lily.obs])
        assert merged.histograms["dp.cone_size"]["count"] == \
            merged.counters["dp.cones"]

    def test_format_table_mentions_phases_and_counters(self, net, library):
        with observed():
            result = mis_flow(net, library, verify=False)
        table = result.obs.format_table()
        assert "decompose" in table
        assert "backend" in table
        assert "dp.states_expanded" in table
        assert "(phases sum)" in table

    def test_mapping_unchanged_by_observability(self, net, library):
        baseline = mis_flow(net, library, verify=False)
        with observed():
            traced = mis_flow(net, library, verify=False)
        assert traced.num_gates == baseline.num_gates
        assert traced.instance_area_mm2 == baseline.instance_area_mm2
        assert traced.chip_area_mm2 == baseline.chip_area_mm2
