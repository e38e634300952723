"""Serve telemetry: request tracing, live metrics and the new verbs.

Round-trips the ``metrics`` / ``health`` / ``events`` protocol verbs
through every transport and follows one ``request_id`` across a job's
whole lifecycle — including the degraded, timeout and single-flight
join paths the happy-path smoke never hits.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.events import new_request_id
from repro.serve import Client, JobSpec, MappingServer, ServerConfig
from repro.serve import server as serve_server
from repro.serve.jobs import run_flow
from repro.serve.protocol import handle_request

pytestmark = pytest.mark.serve


def _kinds(events):
    return [e["kind"] for e in events]


class TestAlwaysOnMetrics:
    def test_latency_histogram_fills_without_obs(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            snap = server.metrics_snapshot()
        latency = snap["histograms"]["serve.latency_s"]
        assert latency["count"] == 1
        assert latency["p50"] > 0 and latency["p99"] > 0
        wait = snap["histograms"]["serve.queue_wait_s"]
        assert wait["count"] == 1

    def test_counters_mirror_stats(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            server.run(blif_spec)  # cache hit
            snap = server.metrics_snapshot()
            stats = server.stats()
        assert snap["counters"]["serve.jobs"] == 2
        assert snap["counters"]["serve.completed"] == 2
        assert snap["counters"]["serve.cache.hits"] == \
            stats["cache"]["hits"] == 1

    def test_queue_depth_settles_to_zero(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            snap = server.metrics_snapshot()
        assert snap["gauges"]["serve.queue_depth"] == 0
        # The depth histogram saw the in-flight job.
        assert snap["histograms"]["serve.queue_depth"]["count"] >= 1

    def test_health_snapshot(self, blif_spec):
        server = MappingServer(workers=2)
        try:
            server.run(blif_spec)
            health = server.health_snapshot()
            assert health["status"] == "ok"
            assert health["workers"] == 2
            assert health["completed"] == 1
            assert health["uptime_s"] >= 0.0
        finally:
            server.shutdown()
        assert server.health_snapshot()["status"] == "shutting_down"


class TestRequestTracing:
    def test_lifecycle_carries_one_id(self, blif_spec):
        rid = new_request_id()
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec, request_id=rid)
            events = server.events.events(request_id=rid)
        assert envelope["request_id"] == rid
        assert _kinds(events) == [
            "job.received", "job.queued", "job.start", "job.done"]
        assert all(e["request_id"] == rid for e in events)

    def test_server_generates_id_when_missing(self, blif_spec):
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec)
        rid = envelope["request_id"]
        assert rid.startswith("req-")

    def test_cache_hit_traced(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            rid = new_request_id()
            hit = server.run(blif_spec, request_id=rid)
            events = server.events.events(request_id=rid)
        assert hit["cache_hit"] is True
        assert hit["request_id"] == rid
        assert "job.cache_hit" in _kinds(events)
        assert "job.done" in _kinds(events)

    def test_rejected_spec_traced(self):
        rid = new_request_id()
        with MappingServer(workers=1) as server:
            envelope = server.run(JobSpec(flow="nope", blif="x"),
                                  request_id=rid)
            events = server.events.events(request_id=rid)
        assert envelope["ok"] is False
        assert "job.rejected" in _kinds(events)

    def test_degraded_path_traced(self, blif_spec, monkeypatch):
        def always_degrade(spec, net, library, matcher=None):
            if matcher is not None:
                raise RuntimeError("boom")
            return run_flow(spec, net, library)

        monkeypatch.setattr(serve_server, "run_flow", always_degrade)
        rid = new_request_id()
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec, request_id=rid)
            events = server.events.events(request_id=rid)
        assert envelope["degraded"] is True
        assert envelope["request_id"] == rid
        kinds = _kinds(events)
        assert "job.degraded" in kinds
        assert kinds[-1] == "job.done"

    def test_timeout_path_traced(self, blif_spec, real_result, monkeypatch):
        release = threading.Event()

        def stuck(spec, net, library, matcher=None):
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", stuck)
        rid = new_request_id()
        server = MappingServer(workers=1)
        try:
            envelope = server.run(blif_spec, timeout=0.2, request_id=rid)
            assert envelope["status"] == "timeout"
            assert envelope["request_id"] == rid
            kinds = _kinds(server.events.events(request_id=rid))
            assert "job.timeout" in kinds
        finally:
            release.set()
            server.shutdown()

    def test_error_path_traced(self, blif_spec, monkeypatch):
        def broken(spec, net, library, matcher=None):
            raise RuntimeError("no flow for you")

        monkeypatch.setattr(serve_server, "run_flow", broken)
        rid = new_request_id()
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec, request_id=rid)
            kinds = _kinds(server.events.events(request_id=rid))
        assert envelope["ok"] is False
        assert envelope["request_id"] == rid
        assert "job.error" in kinds

    def test_joined_follower_keeps_own_id(self, blif_spec, real_result,
                                          monkeypatch):
        release = threading.Event()
        entered = threading.Event()

        def gated(spec, net, library, matcher=None):
            entered.set()
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", gated)
        server = MappingServer(workers=1)
        leader_rid = new_request_id()
        follower_rid = new_request_id()
        try:
            leader = server.submit(blif_spec, request_id=leader_rid)
            assert entered.wait(10.0)
            follower = server.submit(blif_spec, request_id=follower_rid)
            release.set()
            leader_env = leader.future.result(timeout=30.0)
            follower_env = follower.future.result(timeout=30.0)
        finally:
            release.set()
            server.shutdown()
        assert leader_env["request_id"] == leader_rid
        assert follower_env["request_id"] == follower_rid
        follower_events = server.events.events(request_id=follower_rid)
        kinds = _kinds(follower_events)
        assert "job.join" in kinds
        join = next(e for e in follower_events if e["kind"] == "job.join")
        assert join["leader_request_id"] == leader_rid

    def test_slow_threshold_flags_jobs(self, blif_spec):
        config = ServerConfig(workers=1, slow_request_s=0.0)
        with MappingServer(config) as server:
            rid = new_request_id()
            server.run(blif_spec, request_id=rid)
            kinds = _kinds(server.events.events(request_id=rid))
            snap = server.metrics_snapshot()
        assert "job.slow" in kinds
        assert snap["counters"]["serve.slow"] == 1


class TestProtocolVerbs:
    def test_metrics_verb_round_trip(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            response = handle_request(server, {"op": "metrics", "id": 9})
        assert response["ok"] and response["id"] == 9
        latency = response["metrics"]["histograms"]["serve.latency_s"]
        assert latency["count"] == 1

    def test_metrics_verb_prometheus_format(self, blif_spec):
        with MappingServer(workers=1) as server:
            server.run(blif_spec)
            response = handle_request(
                server, {"op": "metrics", "format": "prometheus"})
        assert response["ok"]
        assert "repro_serve_latency_s_bucket" in response["text"]
        assert 'quantile="0.99"' in response["text"]

    def test_health_verb(self):
        with MappingServer(workers=1) as server:
            response = handle_request(server, {"op": "health"})
        assert response["ok"] and response["status"] == "ok"
        assert response["health"]["workers"] == 1

    def test_events_verb_filters(self, blif_spec):
        rid = new_request_id()
        with MappingServer(workers=1) as server:
            server.run(blif_spec, request_id=rid)
            server.run(blif_spec)
            response = handle_request(
                server, {"op": "events", "request_id": rid})
        assert response["ok"]
        assert all(e["request_id"] == rid for e in response["events"])
        assert "job.done" in _kinds(response["events"])

    def test_map_verb_rejects_bad_request_id(self, serve_blif):
        with MappingServer(workers=1) as server:
            response = handle_request(server, {
                "op": "map", "request_id": 42,
                "job": {"flow": "lily", "blif": serve_blif}})
        assert response["ok"] is False
        assert "request_id" in response["error"]

    def test_client_api_over_in_process(self, serve_blif):
        with Client.in_process(workers=1) as client:
            rid = new_request_id()
            envelope = client.map_blif(serve_blif, request_id=rid)
            assert envelope["request_id"] == rid
            metrics = client.metrics()
            assert metrics["histograms"]["serve.latency_s"]["count"] == 1
            assert client.health()["status"] == "ok"
            assert "repro_serve" in client.metrics(prometheus=True)
            events = client.events(request_id=rid, kind="job.done")
            assert len(events) == 1


class TestEventStreamConfig:
    def test_server_streams_events_to_file(self, blif_spec, tmp_path):
        path = tmp_path / "serve-events.jsonl"
        config = ServerConfig(workers=1, event_stream=str(path))
        with MappingServer(config) as server:
            server.run(blif_spec)
        text = path.read_text()
        assert '"job.done"' in text
        assert '"server.shutdown"' in text


@pytest.mark.soak
class TestSubprocessScrape:
    def test_subprocess_server_answers_scrape(self, serve_blif):
        """The acceptance path: a live subprocess server under (small)
        load answers a metrics scrape with non-zero percentiles."""
        client = Client.subprocess(workers=2, slow_request_s=0.0)
        try:
            rid = new_request_id()
            first = client.map_blif(serve_blif, timeout=600,
                                    request_id=rid)
            assert first["ok"] and first["request_id"] == rid
            second = client.map_blif(serve_blif, timeout=600)
            assert second["cache_hit"] is True
            metrics = client.metrics()
            latency = metrics["histograms"]["serve.latency_s"]
            assert latency["count"] == 1
            assert latency["p50"] > 0 and latency["p99"] > 0
            assert metrics["counters"]["serve.slow"] == 1
            assert client.health()["status"] == "ok"
            text = client.metrics(prometheus=True)
            assert "repro_serve_latency_s_bucket" in text
            kinds = _kinds(client.events(request_id=rid))
            for kind in ("job.received", "job.queued", "job.start",
                         "job.slow", "job.done"):
                assert kind in kinds
        finally:
            client.shutdown()
