"""MappingServer behaviour: caching, degradation, timeouts, concurrency.

Tests that must observe the worker loop monkeypatch
``repro.serve.server.run_flow`` (the server imports it by name), using
the session's one real ``FlowResult`` so payload building stays honest.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.network.blif import parse_blif
from repro.obs import OBS
from repro.serve import (
    Client,
    JobSpec,
    MappingServer,
    ServerConfig,
    reset_warm_states,
)
from repro.serve import server as serve_server
from repro.serve.jobs import build_payload, run_flow

pytestmark = pytest.mark.serve


def _wait_for(predicate, timeout=10.0):
    """Poll ``predicate`` until true (worker threads finish async)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestBasics:
    def test_job_runs_and_matches_direct_flow(self, serve_blif):
        """A served payload equals the one a direct flow run builds."""
        spec = JobSpec(flow="lily", mode="area", blif=serve_blif)
        with MappingServer(workers=1) as server:
            envelope = server.run(spec)
        assert envelope["ok"] and envelope["status"] == "ok"
        assert envelope["cache_hit"] is False
        assert envelope["degraded"] is False
        from repro.serve.state import warm_state_for

        state = warm_state_for("big")
        direct = run_flow(spec, parse_blif(serve_blif), state.library)
        assert envelope["result"] == build_payload(spec, direct)

    def test_invalid_spec_answers_error(self):
        with MappingServer(workers=1) as server:
            envelope = server.run(JobSpec(flow="nope", blif="x"))
        assert envelope == {
            "ok": False, "status": "error",
            "error": envelope["error"],
            "request_id": envelope["request_id"],
        }
        assert "unknown flow" in envelope["error"]
        assert envelope["request_id"].startswith("req-")

    def test_bad_blif_answers_contextual_error(self):
        bad = (".model m\n.inputs a b\n.outputs f\n"
               ".names a b f\n1 1\n.end\n")     # mask width mismatch
        with MappingServer(workers=1) as server:
            envelope = server.run(JobSpec(blif=bad))
        assert not envelope["ok"]
        # The contextual parser message survives into the envelope.
        assert "<serve-job>" in envelope["error"]

    def test_submit_after_shutdown_refuses(self, blif_spec):
        server = MappingServer(workers=1)
        server.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(blif_spec)

    def test_stats_shape(self, blif_spec):
        with MappingServer(workers=2) as server:
            server.run(blif_spec)
            stats = server.stats()
        assert stats["workers"] == 2
        assert stats["queue_depth"] == 0
        assert stats["counters"]["jobs"] == 1
        assert stats["counters"]["completed"] == 1
        assert stats["cache"]["entries"] == 1
        assert "big" in stats["warm_states"]


class TestCaching:
    def test_second_submission_is_a_hit(self, blif_spec):
        with MappingServer(workers=1) as server:
            first = server.run(blif_spec)
            second = server.run(blif_spec)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["runtime_s"] == 0.0
        assert second["result"] == first["result"]
        assert second["result_sha256"] == first["result_sha256"]
        assert second["job_key"] == first["job_key"]
        assert server.cache.stats["hits"] == 1

    def test_option_change_misses(self, serve_blif):
        with MappingServer(workers=1) as server:
            area = server.run(JobSpec(blif=serve_blif, mode="area"))
            timing = server.run(JobSpec(blif=serve_blif, mode="timing"))
        assert timing["job_key"] != area["job_key"]
        assert timing["cache_hit"] is False

    def test_eviction_bounds_memory(self, serve_blif, other_blif):
        with MappingServer(workers=1, cache_entries=1) as server:
            server.run(JobSpec(blif=serve_blif))
            server.run(JobSpec(blif=other_blif))     # evicts the first
            third = server.run(JobSpec(blif=serve_blif))
        # Storing the second and third results each evicted the other.
        assert server.cache.stats["evictions"] == 2
        assert third["cache_hit"] is False          # recomputed

    def test_spill_survives_server_restart(self, blif_spec, tmp_path):
        config = ServerConfig(workers=1, spill_dir=str(tmp_path))
        with MappingServer(config) as server:
            first = server.run(blif_spec)
        with MappingServer(ServerConfig(workers=1,
                                        spill_dir=str(tmp_path))) as fresh:
            again = fresh.run(blif_spec)
        assert again["cache_hit"] is True
        assert fresh.cache.stats["disk_hits"] == 1
        assert again["result"] == first["result"]


class TestDegradation:
    def test_matcher_failure_retries_with_fresh_matcher(self, blif_spec,
                                                        monkeypatch):
        """A crash with the warm state's matcher retries without it and
        flags the answer."""
        calls = []

        def flaky(spec, net, library, matcher=None):
            calls.append(matcher)
            if matcher is not None:
                raise RuntimeError("fast path exploded")
            return run_flow(spec, net, library)

        monkeypatch.setattr(serve_server, "run_flow", flaky)
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec)
        assert envelope["ok"] is True
        assert envelope["degraded"] is True
        assert server.stats_counters["degraded"] == 1
        # First attempt carried the warm state's matcher; the retry let
        # the mapper build its own.
        assert calls[0] is not None
        assert calls[1] is None

    def test_degraded_payload_is_still_exact(self, blif_spec, monkeypatch):
        """A matcher that breaks mid-job is what the retry rescues: the
        job still answers the exact payload of a healthy run."""
        from repro.match.treematch import Matcher
        from repro.serve.state import WarmState

        with MappingServer(workers=1) as server:
            fast = server.run(blif_spec)

        class BrokenMatcher(Matcher):
            def bind(self, graph):
                raise RuntimeError("match table lost")

        monkeypatch.setattr(WarmState, "matcher",
                            lambda state: BrokenMatcher(state.patterns))
        with MappingServer(workers=1) as server:
            slow = server.run(blif_spec)
        assert slow["degraded"] is True
        assert slow["result_sha256"] == fast["result_sha256"]
        assert slow["result"] == fast["result"]

    def test_total_failure_answers_error(self, blif_spec, monkeypatch):
        def broken(spec, net, library, matcher=None):
            raise RuntimeError("no flow for you")

        monkeypatch.setattr(serve_server, "run_flow", broken)
        with MappingServer(workers=1) as server:
            envelope = server.run(blif_spec)
        assert envelope["ok"] is False
        assert envelope["status"] == "error"
        assert "no flow for you" in envelope["error"]
        assert server.stats_counters["errors"] == 1


class TestTimeoutAndCancel:
    def test_timeout_cancels_running_job(self, blif_spec, real_result,
                                         monkeypatch):
        release = threading.Event()

        def stuck(spec, net, library, matcher=None):
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", stuck)
        server = MappingServer(workers=1)
        try:
            envelope = server.run(blif_spec, timeout=0.2)
            assert envelope["ok"] is False
            assert envelope["status"] == "timeout"
            assert "cancelled" in envelope["error"]
            assert server.stats_counters["timeouts"] == 1
            release.set()
            # The worker notices the cancel token at its next phase
            # boundary and records the cancellation.
            assert _wait_for(
                lambda: server.stats_counters["cancelled"] == 1)
            # A cancelled job must not poison the cache.
            assert len(server.cache) == 0
        finally:
            release.set()
            server.shutdown()

    def test_cancelled_queued_job_never_runs(self, serve_blif, other_blif,
                                             real_result, monkeypatch):
        release = threading.Event()
        ran = []

        def gated(spec, net, library, matcher=None):
            ran.append(spec.blif)
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", gated)
        server = MappingServer(workers=1)
        try:
            blocker = server.submit(JobSpec(blif=serve_blif))
            assert _wait_for(lambda: len(ran) == 1)
            queued = server.submit(JobSpec(blif=other_blif))
            queued.cancel()
            assert queued.cancelled
            release.set()
            envelope = queued.result(timeout=10.0)
            assert envelope["status"] == "cancelled"
            assert envelope["ok"] is False
            # The queued job's flow never started.
            assert ran == [serve_blif]
            assert blocker.result(timeout=10.0)["ok"] is True
            assert server.stats_counters["cancelled"] == 1
        finally:
            release.set()
            server.shutdown()

    def test_default_timeout_comes_from_config(self, blif_spec, real_result,
                                               monkeypatch):
        release = threading.Event()

        def stuck(spec, net, library, matcher=None):
            release.wait(30.0)
            return real_result

        monkeypatch.setattr(serve_server, "run_flow", stuck)
        server = MappingServer(ServerConfig(workers=1, timeout_s=0.2))
        try:
            envelope = server.run(blif_spec)   # no per-call timeout
            assert envelope["status"] == "timeout"
        finally:
            release.set()
            server.shutdown()


class TestConcurrency:
    @pytest.mark.soak
    def test_parallel_identical_jobs_single_flight(self, blif_spec):
        """N identical jobs: bit-identical payloads, >= N-1 cache hits."""
        n = 8
        server = MappingServer(workers=4)
        barrier = threading.Barrier(n)
        envelopes = [None] * n

        def hammer(i):
            barrier.wait()
            envelopes[i] = server.run(blif_spec, timeout=120.0)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(n)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert all(e is not None and e["ok"] for e in envelopes)
            hashes = {e["result_sha256"] for e in envelopes}
            assert len(hashes) == 1
            results = [e["result"] for e in envelopes]
            assert all(r == results[0] for r in results)   # bit-identical
            assert server.cache.stats["hits"] >= n - 1
            assert server.stats_counters["jobs"] == n
            assert server.stats_counters["completed"] == n
        finally:
            server.shutdown()

    @pytest.mark.soak
    def test_mixed_jobs_all_complete(self, serve_blif, other_blif):
        specs = [JobSpec(blif=serve_blif), JobSpec(blif=other_blif),
                 JobSpec(blif=serve_blif, flow="mis")]
        server = MappingServer(workers=3)
        try:
            handles = [server.submit(s) for s in specs * 2]
            envelopes = [h.result(timeout=120.0) for h in handles]
        finally:
            server.shutdown()
        assert all(e["ok"] for e in envelopes)
        # Three distinct keys; each duplicate joined or hit its twin.
        assert len({e["job_key"] for e in envelopes}) == 3
        assert server.cache.stats["hits"] >= 3


class TestAcceptance:
    @pytest.mark.slow
    def test_repeat_suite_job_hits_without_reparse(self):
        """The issue's acceptance check: submit one suite circuit twice;
        the second answer is a cache hit, bit-identical, and the obs
        counters prove no library re-parse or state rebuild happened."""
        reset_warm_states()
        OBS.enable()
        try:
            with Client.in_process(workers=2) as client:
                first = client.map_circuit("9symml", flow="lily",
                                           mode="area")
                second = client.map_circuit("9symml", flow="lily",
                                            mode="area")
                assert first["ok"] and second["ok"]
                assert first["cache_hit"] is False
                assert second["cache_hit"] is True
                assert second["result"] == first["result"]
                assert second["result_sha256"] == first["result_sha256"]
                # Warm state was built exactly once across both jobs.
                assert OBS.metrics.counter(
                    "serve.library_parses").value == 1
                assert OBS.metrics.counter(
                    "serve.state_builds").value == 1
                # One build (first submit); the leader's worker and the
                # second submit both hit the network cache.
                assert OBS.metrics.counter(
                    "serve.network_builds").value == 1
                assert OBS.metrics.counter(
                    "serve.network_hits").value == 2
                assert OBS.metrics.counter("serve.cache.hits").value == 1
                assert OBS.metrics.counter("serve.jobs").value == 2
        finally:
            OBS.disable()

    def test_merged_obs_covers_job_phases(self, blif_spec):
        OBS.enable()
        try:
            with MappingServer(workers=1) as server:
                server.run(blif_spec)
                merged = server.merged_obs()
        finally:
            OBS.disable()
        assert merged is not None
        # The per-job report carries flow phase spans.
        table = merged.format_table()
        assert table
