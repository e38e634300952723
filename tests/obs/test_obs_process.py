"""Process readings in observability: garbage-collector cost, peak RSS."""

from __future__ import annotations

import gc

import pytest

from repro.circuits.suite import build_circuit
from repro.flow.pipeline import mis_flow
from repro.obs import OBS, ObsSession, observed, peak_rss_mb


@pytest.fixture(autouse=True)
def _leave_singleton_disabled():
    yield
    OBS.disable()


def test_collections_are_counted_while_enabled():
    session = ObsSession().enable()
    try:
        gc.collect()
        counters = session.metrics.snapshot_counters()
    finally:
        session.disable()
    assert counters["gc.gen2.collections"] >= 1
    pause = counters["gc.gen2.pause_us"]
    assert isinstance(pause, int) and pause >= 0


def test_disable_restores_gc_callbacks():
    before = list(gc.callbacks)
    session = ObsSession()
    session.enable()
    session.enable(reset=False)
    assert len(gc.callbacks) == len(before) + 1
    session.disable()
    assert gc.callbacks == before
    session.disable()
    assert gc.callbacks == before
    counters = session.metrics.snapshot_counters()
    gc.collect()
    assert session.metrics.snapshot_counters() == counters


def test_flow_report_carries_peak_rss(big_lib):
    with observed():
        result = mis_flow(build_circuit("misex1"), big_lib, verify=False)
    peak = result.obs.gauges["process.peak_rss_mb"]
    assert 0 < peak <= peak_rss_mb()
    assert "process.peak_rss_mb" in result.obs.format_table()
