"""ClusterRouter behaviour: routing, failover, shedding, pipelining.

The router edge cases the operations layer depends on:

* consistent-hash stability — removing a ring node moves only the
  keys it owned, and a dead shard's keys re-route while warm results
  still answer from the shared spill tier;
* bounded-queue shedding — a structured ``retry_after_s`` envelope,
  never a poisoned cache;
* pipelined clients — out-of-order responses resolve to the callers
  that sent them, with every ``request_id`` echo preserved.

Tests needing controlled worker timing monkeypatch
``repro.serve.server.run_flow`` exactly like the server suite does.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import (
    AsyncClient,
    Client,
    ClusterConfig,
    ClusterRouter,
    HashRing,
    JobSpec,
    MappingServer,
    ServerConfig,
    route_key,
)
from repro.serve import server as serve_server
from repro.serve.protocol import serve_socket

pytestmark = pytest.mark.serve


def _wait_for(predicate, timeout=10.0):
    """Poll ``predicate`` until true (worker threads finish async)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestHashRing:
    def test_keys_spread_over_all_nodes(self):
        ring = HashRing([0, 1, 2, 3])
        owners = {ring.node_for(f"key-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_removal_moves_only_the_dead_nodes_keys(self):
        ring = HashRing([0, 1, 2, 3])
        keys = [f"key-{i}" for i in range(300)]
        before = {key: ring.node_for(key) for key in keys}
        ring.remove(2)
        moved = [key for key in keys if ring.node_for(key) != before[key]]
        assert moved, "node 2 owned nothing in 300 keys?"
        assert all(before[key] == 2 for key in moved)

    def test_preference_starts_with_owner_and_is_distinct(self):
        ring = HashRing([0, 1, 2])
        for i in range(20):
            preference = ring.preference(f"key-{i}")
            assert preference[0] == ring.node_for(f"key-{i}")
            assert sorted(preference) == [0, 1, 2]

    def test_empty_ring(self):
        ring = HashRing([0])
        ring.remove(0)
        assert ring.preference("anything") == []
        with pytest.raises(KeyError):
            ring.node_for("anything")


class TestRouteKey:
    def test_options_do_not_change_the_route(self, serve_blif):
        area = JobSpec(blif=serve_blif, flow="lily", mode="area")
        timing = JobSpec(blif=serve_blif, flow="mis", mode="timing")
        assert route_key(area) == route_key(timing)

    def test_netlist_and_library_do_change_it(self, serve_blif,
                                              other_blif):
        base = JobSpec(blif=serve_blif)
        assert route_key(JobSpec(blif=other_blif)) != route_key(base)
        assert route_key(
            JobSpec(blif=serve_blif, library="tiny")) != route_key(base)
        assert route_key(
            JobSpec(blif=serve_blif, scale=2.0)) != route_key(base)


class TestRouting:
    def test_same_key_routes_to_same_shard_and_hits(self, serve_blif):
        with ClusterRouter(shards=3, workers=1) as router:
            client = Client.wrap(router)
            first = client.submit(JobSpec(blif=serve_blif))
            second = client.submit(JobSpec(blif=serve_blif))
            assert first["ok"] and second["ok"]
            assert second["shard"] == first["shard"]
            assert second["cache_hit"] is True
            assert second["result_sha256"] == first["result_sha256"]

    def test_bad_job_is_an_error_not_a_dead_shard(self):
        with ClusterRouter(shards=2, workers=1) as router:
            envelope = Client.wrap(router).submit(
                JobSpec(circuit="no-such-circuit"))
            assert envelope["ok"] is False
            assert envelope["status"] == "error"
            assert router.alive_count() == 2

    def test_stats_metrics_health_aggregate(self, serve_blif, other_blif):
        with ClusterRouter(shards=2, workers=1) as router:
            client = Client.wrap(router)
            assert client.submit(JobSpec(blif=serve_blif))["ok"]
            assert client.submit(JobSpec(blif=other_blif))["ok"]
            stats = client.stats()
            assert stats["counters"]["jobs"] == 2
            assert stats["router"]["shards_alive"] == 2
            metrics = client.metrics()
            assert metrics["counters"]["serve.cluster.routed"] == 2
            assert metrics["histograms"]["serve.latency_s"]["count"] == 2
            health = client.health()
            assert health["status"] == "ok"
            assert health["shards_alive"] == 2


class TestShardDeath:
    def test_dead_shard_reroutes_and_warm_keys_hit_via_spill(
            self, serve_blif, tmp_path):
        router = ClusterRouter(ClusterConfig(
            shards=3, workers=1, spill_dir=str(tmp_path)))
        try:
            client = Client.wrap(router)
            spec = JobSpec(blif=serve_blif)
            first = client.submit(spec)
            assert first["ok"]
            victim = first["shard"]
            assert victim == router.shard_for(spec)

            router.shards[victim].kill()
            failover = client.submit(spec)
            assert failover["ok"]
            assert failover["shard"] != victim
            # Re-routed, but warm: the new owner misses in memory and
            # hits the shared spill tier — bit-identical, no re-map.
            assert failover["cache_hit"] is True
            assert failover["result_sha256"] == first["result_sha256"]

            assert router.alive_count() == 2
            assert router.counters["failovers"] == 1
            health = client.health()
            assert health["status"] == "degraded"
            # The discovered death is on the ring too: the key's owner
            # is now the shard that answered the failover.
            assert router.shard_for(spec) == failover["shard"]
        finally:
            router.shutdown()

    def test_all_shards_dead_answers_unavailable(self, serve_blif):
        router = ClusterRouter(shards=2, workers=1)
        try:
            for shard in router.shards:
                shard.kill()
            envelope = Client.wrap(router).submit(JobSpec(blif=serve_blif))
            assert envelope["ok"] is False
            assert envelope["status"] == "unavailable"
            assert Client.wrap(router).health()["status"] == "down"
        finally:
            router.shutdown()


class TestShedding:
    def test_bounded_queue_sheds_with_retry_after(
            self, serve_blif, other_blif, real_result, monkeypatch):
        release = threading.Event()
        started = []

        def stuck(spec, net, library, matcher=None):
            started.append(spec.blif)
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", stuck)
        server = MappingServer(ServerConfig(workers=1, max_queue_depth=1))
        try:
            blocker = server.submit(JobSpec(blif=serve_blif))
            assert _wait_for(lambda: len(started) == 1)
            shed = server.run(JobSpec(blif=other_blif))
            assert shed["ok"] is False
            assert shed["status"] == "overloaded"
            assert shed["retry_after_s"] > 0
            assert server.stats_counters["shed"] == 1
            # The shed job never entered the in-flight table and never
            # cached anything: the cache holds only the blocker's key
            # once it completes.
            release.set()
            assert blocker.result(timeout=10.0)["ok"]
            assert len(server.cache) == 1
            assert started == [serve_blif]
            # Capacity freed: the same job now runs and is a genuine
            # miss, not a poisoned hit.
            retry = server.run(JobSpec(blif=other_blif))
            assert retry["ok"] is True
            assert retry["cache_hit"] is False
        finally:
            release.set()
            server.shutdown()

    def test_cache_hits_and_joins_never_shed(
            self, serve_blif, other_blif, real_result, monkeypatch):
        release = threading.Event()

        def stuck(spec, net, library, matcher=None):
            release.wait(30.0)
            return real_result

        server = MappingServer(ServerConfig(workers=1, max_queue_depth=1))
        try:
            warm = server.run(JobSpec(blif=serve_blif))
            assert warm["ok"]
            monkeypatch.setattr(serve_server, "run_flow", stuck)
            blocker = server.submit(JobSpec(blif=other_blif))
            # Queue is full, but a warm key answers (cache hit)...
            hit = server.run(JobSpec(blif=serve_blif))
            assert hit["ok"] and hit["cache_hit"]
            # ...and a duplicate of the in-flight job joins its leader.
            follower = server.submit(JobSpec(blif=other_blif))
            release.set()
            assert blocker.result(timeout=10.0)["ok"]
            assert follower.result(timeout=10.0)["ok"]
            assert server.stats_counters["shed"] == 0
        finally:
            release.set()
            server.shutdown()

    def test_cluster_shed_envelope_names_the_shard(self, serve_blif):
        with ClusterRouter(shards=2, workers=1,
                           max_queue_depth=0) as router:
            envelope = Client.wrap(router).submit(JobSpec(blif=serve_blif))
            assert envelope["status"] == "overloaded"
            assert envelope["retry_after_s"] > 0
            assert "shard" in envelope
            # Shedding is not failover: nothing marked down.
            assert router.alive_count() == 2


class TestAsyncClient:
    def test_pipelining_preserves_request_id_echo_order(
            self, serve_blif, other_blif, real_result, monkeypatch):
        release = threading.Event()
        started = []

        def gated(spec, net, library, matcher=None):
            started.append(spec.blif)
            if spec.blif == serve_blif:
                release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", gated)
        server = MappingServer(workers=2)
        ready = threading.Event()
        bound = []
        thread = threading.Thread(
            target=serve_socket, args=(server, "127.0.0.1", 0),
            kwargs={"ready": ready, "bound_port": bound}, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        client = AsyncClient.connect("127.0.0.1", bound[0])
        try:
            assert client.pipelined is True
            assert client.width >= 2
            slow = client.submit_async(JobSpec(blif=serve_blif),
                                       request_id="req-slow000000001")
            assert _wait_for(lambda: serve_blif in started)
            fast = client.submit_async(JobSpec(blif=other_blif),
                                       request_id="req-fast000000001")
            # The fast job answers while the slow one is still running:
            # genuinely out-of-order over one connection.
            fast_envelope = fast.result(timeout=30.0)
            assert fast_envelope["ok"]
            assert fast_envelope["request_id"] == "req-fast000000001"
            assert not slow.done()
            release.set()
            slow_envelope = slow.result(timeout=30.0)
            assert slow_envelope["ok"]
            assert slow_envelope["request_id"] == "req-slow000000001"
        finally:
            release.set()
            client.shutdown()
            server.shutdown()
            thread.join(timeout=10.0)

    def test_many_in_flight_ids_resolve_to_their_callers(self, serve_blif):
        server = MappingServer(workers=2)
        ready = threading.Event()
        bound = []
        thread = threading.Thread(
            target=serve_socket, args=(server, "127.0.0.1", 0),
            kwargs={"ready": ready, "bound_port": bound}, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        client = AsyncClient.connect("127.0.0.1", bound[0])
        try:
            request_ids = [f"req-many{i:08d}" for i in range(12)]
            futures = [client.submit_async(JobSpec(blif=serve_blif),
                                           request_id=request_id)
                       for request_id in request_ids]
            for request_id, future in zip(request_ids, futures):
                envelope = future.result(timeout=60.0)
                assert envelope["ok"]
                assert envelope["request_id"] == request_id
        finally:
            client.shutdown()
            server.shutdown()
            thread.join(timeout=10.0)


class TestProtocolSurface:
    def test_hello_handshake_and_pipeline_width(self, serve_blif):
        from repro.serve.protocol import handle_request

        server = MappingServer(workers=3)
        try:
            response = handle_request(
                server, {"op": "hello", "id": 9, "pipeline": True})
            assert response["ok"] and response["pipeline"]
            assert response["id"] == 9
            assert response["width"] == server.pipeline_width >= 6
        finally:
            server.shutdown()

    def test_router_serves_the_wire_protocol(self, serve_blif):
        from repro.serve.protocol import handle_request

        with ClusterRouter(shards=2, workers=1) as router:
            mapped = handle_request(router, {
                "op": "map", "id": 1,
                "job": {"blif": serve_blif, "flow": "lily",
                        "mode": "area"}})
            assert mapped["ok"] and mapped["id"] == 1
            assert "shard" in mapped
            trace = handle_request(router, {
                "op": "events", "id": 2,
                "request_id": mapped["request_id"]})
            kinds = [e["kind"] for e in trace["events"]]
            assert "job.received" in kinds and "job.done" in kinds
            health = handle_request(router, {"op": "health", "id": 3})
            assert health["status"] == "ok"
