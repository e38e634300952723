"""Counter / gauge / histogram semantics and session behaviour."""

from __future__ import annotations

import pytest

from repro.obs.metrics import Metrics
from repro.obs.session import OBS, ObsSession, observed


class TestMetrics:
    def test_counter_accumulates(self):
        m = Metrics()
        m.counter("hits").inc()
        m.counter("hits").inc(4)
        assert m.counter("hits").value == 5

    def test_counter_rejects_negative(self):
        m = Metrics()
        with pytest.raises(ValueError):
            m.counter("hits").inc(-1)

    def test_counter_identity_by_name(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.counter("a") is not m.counter("b")

    def test_gauge_latest_value(self):
        m = Metrics()
        m.gauge("depth").set(3)
        m.gauge("depth").set(7)
        assert m.gauge("depth").value == 7
        m.gauge("depth").add(-2)
        assert m.gauge("depth").value == 5

    def test_histogram_summary(self):
        m = Metrics()
        for v in (2.0, 4.0, 9.0):
            m.histogram("sizes").observe(v)
        h = m.histogram("sizes")
        assert h.count == 3
        assert h.total == 15.0
        assert h.min == 2.0
        assert h.max == 9.0
        assert h.mean == 5.0
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == 15.0
        assert s["min"] == 2.0
        assert s["max"] == 9.0
        assert s["mean"] == 5.0
        # Three samples in three distinct buckets, string-keyed.
        assert sum(s["buckets"].values()) == 3
        assert all(isinstance(k, str) for k in s["buckets"])

    def test_empty_histogram_summary(self):
        s = Metrics().histogram("empty").summary()
        assert s["count"] == 0
        assert s["sum"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 0.0 and s["mean"] == 0.0
        assert s["p50"] == 0.0 and s["p99"] == 0.0
        assert s["buckets"] == {}

    def test_snapshot_counters(self):
        m = Metrics()
        m.counter("a").inc(2)
        before = m.snapshot_counters()
        m.counter("a").inc(3)
        m.counter("b").inc()
        after = m.snapshot_counters()
        assert after["a"] - before.get("a", 0) == 3
        assert after["b"] - before.get("b", 0) == 1

    def test_reset(self):
        m = Metrics()
        m.counter("a").inc()
        m.gauge("g").set(1)
        m.histogram("h").observe(1)
        m.reset()
        assert m.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestSession:
    def test_disabled_span_is_noop(self):
        session = ObsSession()
        assert not session.enabled
        with session.span("anything", key="value") as span:
            assert span is None
        assert session.tracer.roots == []

    def test_disabled_spans_share_one_context(self):
        session = ObsSession()
        assert session.span("a") is session.span("b")

    def test_enable_records_and_disable_stops(self):
        session = ObsSession()
        session.enable()
        with session.span("work") as span:
            assert span is not None
        assert [r.name for r in session.tracer.roots] == ["work"]
        session.disable()
        with session.span("more"):
            pass
        assert len(session.tracer.roots) == 1

    def test_enable_resets_by_default(self):
        session = ObsSession()
        session.enable()
        session.metrics.counter("x").inc()
        with session.span("old"):
            pass
        session.enable()
        # Only a garbage collection since the reset may have counted.
        assert not [name for name in session.metrics.snapshot_counters()
                    if not name.startswith("gc.")]
        assert session.tracer.roots == []

    def test_observed_context_manager(self):
        session = ObsSession()
        with observed(session) as s:
            assert s is session
            assert s.enabled
        assert not session.enabled

    def test_global_singleton(self):
        from repro.obs import get_session

        assert get_session() is OBS
        assert not OBS.enabled  # tests must leave the singleton off

    def test_annotate(self):
        session = ObsSession().enable()
        with session.span("x") as span:
            session.annotate(span, gates=12)
        assert span.attrs["gates"] == 12
        session.annotate(None, ignored=1)  # disabled path: no-op
