"""The resident mapping server: worker pool + cache + warm state.

One :class:`MappingServer` owns a thread pool, a
:class:`~repro.serve.cache.ResultCache` and references into the
process-wide warm state registry.  A job travels::

    submit(spec)
      -> content-addressed key (netlist/library/options hashed)
      -> cache probe ............................ hit: answer immediately
      -> in-flight table ........... duplicate: join the running leader
      -> worker thread:
           warm state lookup (library/patterns/index, built once)
           network build (cached per circuit name / BLIF content)
           flow run (fast perf; on failure retry PerfOptions.naive())
           payload build; cache store

Three degradation rules keep the server answering under stress:

* **fast-path failure** — any exception from the flow with the standard
  fast ``PerfOptions`` and the warm matcher is retried once with
  ``PerfOptions.naive()`` (the naive matcher; the layout kernels have no
  switch) and the response is flagged ``degraded`` (``serve.degraded``
  counts it);
* **timeout** — :meth:`MappingServer.run` bounds the wait; on expiry the
  job is cancelled (cooperatively between phases if already running,
  outright if still queued) and the caller gets ``status: "timeout"``;
* **bad jobs** — malformed specs or netlists answer ``status: "error"``
  with the contextual parser message; the server itself never dies.

Identical concurrent submissions are *single-flighted*: followers share
the leader's future and count as cache hits (``serve.inflight_joins``),
which is what lets N parallel identical jobs finish with one mapping and
N-1 hits.

Telemetry is first-class and always on (independent of the global
``repro.obs`` session, which stays opt-in for *profiling*): the server
owns a :class:`~repro.obs.metrics.Metrics` registry recording the
``serve.latency_s`` / ``serve.queue_wait_s`` / ``serve.queue_depth``
percentile histograms, and an :class:`~repro.obs.events.EventLog` where
every job's lifecycle — received, queued, joined, started, degraded,
timed out, cancelled, done, slow — is recorded under one generated (or
caller-provided) ``request_id``.  ``metrics_snapshot()`` /
``health_snapshot()`` back the protocol's ``metrics`` and ``health``
verbs, so a running server is scrapeable without restart.  Jobs whose
runtime exceeds ``ServerConfig.slow_request_s`` auto-log a ``job.slow``
event.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import OBS, Metrics, ObsReport, merge_reports
from repro.obs.events import EventLog, new_request_id
from repro.perf import PerfOptions
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    JobError,
    JobSpec,
    build_payload,
    job_key,
    payload_hash,
    run_flow,
)
from repro.serve.state import WarmState, warm_state_for

__all__ = ["MappingServer", "ServerConfig", "JobHandle", "JobCancelled",
           "ServerOverloaded", "ServerClosed"]


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel token is set."""


class ServerClosed(RuntimeError):
    """Raised by :meth:`MappingServer.submit` after shutdown.

    :meth:`MappingServer.run` (and therefore the wire protocol) turns
    it into a ``status: "unavailable"`` envelope, which is what lets a
    cluster router distinguish a *dead shard* from a bad job and
    re-hash the key instead of failing the request.
    """


class ServerOverloaded(RuntimeError):
    """Raised by :meth:`MappingServer.submit` when the bounded queue is
    full (load shedding).

    Carries ``retry_after_s`` — the server's estimate of when capacity
    frees up — which :meth:`MappingServer.run` copies into the
    ``status: "overloaded"`` error envelope.  A shed job never starts,
    so it can never poison the cache.
    """

    def __init__(self, depth: int, retry_after_s: float) -> None:
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"queue full ({depth} jobs in flight); "
            f"retry in {retry_after_s:.2f}s")


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one server instance.

    Attributes:
        workers: worker threads mapping concurrently (they share the
            warm state read-only, so more workers add no cold starts).
        cache_entries: in-memory LRU bound of the result cache.
        spill_dir: optional directory for disk spill of cache entries;
            point two processes at the same directory to share results.
        timeout_s: default per-job timeout for :meth:`MappingServer.run`
            (``None``: wait forever).
        perf: flow fast-path switches; jobs that fail under them retry
            with ``PerfOptions.naive()``.
        slow_request_s: jobs whose mapping runtime exceeds this log a
            ``job.slow`` event (the slow-request audit trail).
        event_ring: in-memory event-log bound (older events drop).
        event_stream: optional JSONL path every event is appended to —
            the durable tier of the event log.
        max_queue_depth: bound on jobs in flight (queued + running).
            ``None`` (the default) queues without bound; with a bound,
            a submission that would exceed it is *shed* — it answers
            ``status: "overloaded"`` with a ``retry_after_s`` hint
            instead of queueing (cache hits and single-flight joins
            are never shed: they cost no worker).
    """

    workers: int = 2
    cache_entries: int = 128
    spill_dir: Optional[str] = None
    timeout_s: Optional[float] = None
    perf: Optional[PerfOptions] = None
    slow_request_s: float = 5.0
    event_ring: int = 4096
    event_stream: Optional[str] = None
    max_queue_depth: Optional[int] = None


class JobHandle:
    """A submitted job: its key, request id, future and cancel token."""

    def __init__(self, job_id: int, key: str, spec: JobSpec,
                 request_id: Optional[str] = None) -> None:
        self.job_id = job_id
        self.key = key
        self.spec = spec
        #: The trace id carried through every event/span of this job.
        self.request_id = request_id or new_request_id()
        #: ``perf_counter`` at enqueue; queue wait = start − this.
        self.enqueued_at = time.perf_counter()
        self.future: "Future[Dict[str, Any]]" = Future()
        self._cancel = threading.Event()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancel.is_set()

    def cancel(self) -> None:
        """Request cancellation: queued jobs never start, running jobs
        stop at their next phase boundary."""
        self._cancel.set()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block for the response envelope (raises on timeout)."""
        return self.future.result(timeout)


class MappingServer:
    """Batched mapping-as-a-service over a persistent worker pool."""

    def __init__(self, config: Optional[ServerConfig] = None, **kwargs):
        """``kwargs`` are :class:`ServerConfig` field overrides, so
        ``MappingServer(workers=4)`` works without building a config."""
        if config is None:
            config = ServerConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a ServerConfig or field overrides")
        self.config = config
        self.cache = ResultCache(config.cache_entries, config.spill_dir)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, config.workers),
            thread_name_prefix="serve-worker",
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, JobHandle] = {}
        self._next_id = 0
        self._closed = False
        self._started = time.monotonic()
        self.stats_counters: Dict[str, int] = {
            "jobs": 0, "completed": 0, "errors": 0, "timeouts": 0,
            "cancelled": 0, "degraded": 0, "inflight_joins": 0,
            "slow": 0, "shed": 0,
        }
        self.obs_reports: List[ObsReport] = []
        #: Always-on serve telemetry (latency/queue histograms); the
        #: global ``repro.obs`` session is mirrored only when enabled.
        self.metrics = Metrics()
        #: Request-scoped structured event log (ring + optional stream).
        self.events = EventLog(config.event_ring,
                               stream=config.event_stream)

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec,
               request_id: Optional[str] = None) -> JobHandle:
        """Enqueue one job; returns immediately with its handle.

        Cache hits resolve the handle synchronously; a duplicate of a
        job already in flight joins that job instead of re-mapping.
        ``request_id`` (generated when absent) tags every event and
        span this job causes and is echoed in the response envelope.
        With a ``max_queue_depth`` configured, a submission that would
        exceed it raises :class:`ServerOverloaded` (cache hits and
        single-flight joins always go through — they cost no worker).
        """
        if self._closed:
            raise ServerClosed("server is shut down")
        spec.validate()
        self._count("jobs")
        if OBS.enabled:
            OBS.metrics.counter("serve.jobs").inc()
        state = warm_state_for(spec.library, spec.genlib)
        _, net_hash = state.network_for(spec.circuit, spec.blif, spec.scale)
        key = job_key(spec, net_hash, state.library_hash)

        cached = self.cache.get(key)
        leader: Optional[JobHandle] = None
        shed_depth: Optional[int] = None
        with self._lock:
            self._next_id += 1
            handle = JobHandle(self._next_id, key, spec,
                               request_id=request_id)
            if cached is None:
                leader = self._inflight.get(key)
                if leader is None:
                    bound = self.config.max_queue_depth
                    if bound is not None and len(self._inflight) >= bound:
                        # Load shedding: the job never enters the
                        # in-flight table, never starts, never caches.
                        shed_depth = len(self._inflight)
                    else:
                        self._inflight[key] = handle
                        self._set_queue_depth_locked()
                else:
                    self.stats_counters["inflight_joins"] += 1
                    self.cache.stats["hits"] += 1
                    if OBS.enabled:
                        OBS.metrics.counter("serve.inflight_joins").inc()
                        OBS.metrics.counter("serve.cache.hits").inc()
        self.events.emit(
            "job.received", handle.request_id, key=key, flow=spec.flow,
            mode=spec.mode, circuit=spec.circuit or "<blif>")
        if shed_depth is not None:
            retry_after = self._retry_after_estimate(shed_depth)
            self._count("shed")
            if OBS.enabled:
                OBS.metrics.counter("serve.shed").inc()
            self.events.emit("job.shed", handle.request_id, key=key,
                             queue_depth=shed_depth,
                             retry_after_s=retry_after)
            raise ServerOverloaded(shed_depth, retry_after)
        # Resolution happens outside the lock: done-callbacks can fire
        # synchronously and _resolve_follower/_finish re-take it.
        if cached is not None:
            self._count("completed")
            self.events.emit("job.cache_hit", handle.request_id, key=key)
            envelope = self._envelope(
                key, cached, cache_hit=True, runtime_s=0.0,
                request_id=handle.request_id)
            self.events.emit("job.done", handle.request_id, key=key,
                             status="ok", cache_hit=True, runtime_s=0.0)
            handle.future.set_result(envelope)
        elif leader is not None:
            self.events.emit("job.join", handle.request_id, key=key,
                             leader_request_id=leader.request_id)
            leader.future.add_done_callback(
                lambda f, h=handle: self._resolve_follower(f, h))
        else:
            self.events.emit("job.queued", handle.request_id, key=key)
            self._pool.submit(self._work, handle, state)
        return handle

    def run(self, spec: JobSpec, timeout: Optional[float] = None,
            request_id: Optional[str] = None) -> Dict[str, Any]:
        """Submit and wait; the blocking convenience wrapper.

        ``timeout`` (default: the server's ``timeout_s``) bounds the
        wait; on expiry the job is cancelled and the envelope reports
        ``status: "timeout"``.
        """
        request_id = request_id or new_request_id()
        try:
            handle = self.submit(spec, request_id=request_id)
        except ServerOverloaded as exc:
            return {"ok": False, "status": "overloaded",
                    "retry_after_s": exc.retry_after_s,
                    "request_id": request_id, "error": str(exc)}
        except ServerClosed as exc:
            return {"ok": False, "status": "unavailable",
                    "request_id": request_id, "error": str(exc)}
        except (JobError, ValueError) as exc:
            self._count("errors")
            self.events.emit("job.rejected", request_id, error=str(exc))
            return {"ok": False, "status": "error", "error": str(exc),
                    "request_id": request_id}
        if timeout is None:
            timeout = self.config.timeout_s
        try:
            return handle.result(timeout)
        except FutureTimeoutError:
            handle.cancel()
            self._count("timeouts")
            if OBS.enabled:
                OBS.metrics.counter("serve.timeouts").inc()
            self.events.emit("job.timeout", handle.request_id,
                             key=handle.key, timeout_s=timeout)
            return {
                "ok": False, "status": "timeout", "job_key": handle.key,
                "request_id": handle.request_id,
                "error": f"job exceeded {timeout:g}s "
                         f"(cancelled; it will not be retried)",
            }

    # -- worker side --------------------------------------------------------

    def _work(self, handle: JobHandle, state: WarmState) -> None:
        start = time.perf_counter()
        queue_wait = start - handle.enqueued_at
        self._observe("serve.queue_wait_s", queue_wait)
        self.events.emit("job.start", handle.request_id, key=handle.key,
                         queue_wait_s=queue_wait)
        counters_before = (
            OBS.metrics.snapshot_counters() if OBS.enabled else None
        )
        try:
            # With profiling on, every span the job causes hangs under
            # one root annotated with the request id (worker threads
            # have an empty span stack, so this opens a fresh root).
            if OBS.enabled:
                with OBS.span("serve.job", request_id=handle.request_id,
                              key=handle.key):
                    payload, degraded, reports = self._execute(handle, state)
            else:
                payload, degraded, reports = self._execute(handle, state)
        except JobCancelled:
            self.events.emit("job.cancelled", handle.request_id,
                             key=handle.key)
            self._finish(handle, {
                "ok": False, "status": "cancelled", "job_key": handle.key,
                "request_id": handle.request_id,
                "error": "job cancelled before completion",
            })
            self._count("cancelled")
            return
        except Exception as exc:  # noqa: BLE001 — the envelope carries it
            self.events.emit("job.error", handle.request_id,
                             key=handle.key,
                             error=f"{type(exc).__name__}: {exc}")
            self._finish(handle, {
                "ok": False, "status": "error", "job_key": handle.key,
                "request_id": handle.request_id,
                "error": f"{type(exc).__name__}: {exc}",
            })
            self._count("errors")
            if OBS.enabled:
                OBS.metrics.counter("serve.errors").inc()
            return
        runtime = time.perf_counter() - start
        del counters_before  # flows snapshot their own deltas
        self.cache.put(handle.key, payload)
        with self._lock:
            self.obs_reports.extend(reports)
        if degraded:
            self._count("degraded")
            if OBS.enabled:
                OBS.metrics.counter("serve.degraded").inc()
        self._observe("serve.latency_s", runtime)
        if runtime >= self.config.slow_request_s:
            self._count("slow")
            self.events.emit(
                "job.slow", handle.request_id, key=handle.key,
                runtime_s=runtime,
                threshold_s=self.config.slow_request_s)
        self.events.emit("job.done", handle.request_id, key=handle.key,
                         status="ok", cache_hit=False, degraded=degraded,
                         runtime_s=runtime)
        self._finish(handle, self._envelope(
            handle.key, payload, cache_hit=False, runtime_s=runtime,
            degraded=degraded, request_id=handle.request_id))

    def _execute(self, handle: JobHandle, state: WarmState):
        """Run one job body; returns ``(payload, degraded, obs_reports)``."""
        spec = handle.spec
        if handle.cancelled:
            raise JobCancelled(handle.key)
        net, _ = state.network_for(spec.circuit, spec.blif, spec.scale)
        if handle.cancelled:
            raise JobCancelled(handle.key)
        perf = self.config.perf if self.config.perf is not None \
            else PerfOptions()
        degraded = False
        reports: List[ObsReport] = []
        try:
            result = run_flow(spec, net, state.library, perf=perf,
                              matcher=state.matcher())
        except Exception as exc:  # noqa: BLE001 — degrade, don't error
            if handle.cancelled:
                raise JobCancelled(handle.key)
            # Graceful degradation: the naive matcher is the reference
            # implementation; answer slowly rather than not at all.
            degraded = True
            self.events.emit(
                "job.degraded", handle.request_id, key=handle.key,
                error=f"{type(exc).__name__}: {exc}")
            result = run_flow(spec, net, state.library,
                              perf=PerfOptions.naive())
        if result.obs is not None:
            reports.append(result.obs)
        if handle.cancelled:
            raise JobCancelled(handle.key)
        return build_payload(spec, result), degraded, reports

    # -- bookkeeping --------------------------------------------------------

    def _envelope(self, key: str, payload: Dict[str, Any], cache_hit: bool,
                  runtime_s: float, degraded: bool = False,
                  request_id: Optional[str] = None) -> Dict[str, Any]:
        return {
            "ok": True,
            "status": "ok",
            "job_key": key,
            "request_id": request_id,
            "cache_hit": cache_hit,
            "degraded": degraded,
            "runtime_s": runtime_s,
            "result": payload,
            "result_sha256": payload_hash(payload),
        }

    def _finish(self, handle: JobHandle, envelope: Dict[str, Any]) -> None:
        with self._lock:
            if self._inflight.get(handle.key) is handle:
                del self._inflight[handle.key]
                self._set_queue_depth_locked()
            if envelope.get("ok"):
                self.stats_counters["completed"] += 1
        handle.future.set_result(envelope)

    def _resolve_follower(self, leader_future: "Future[Dict[str, Any]]",
                          handle: JobHandle) -> None:
        envelope = dict(leader_future.result())
        envelope["request_id"] = handle.request_id
        if envelope.get("ok"):
            envelope["cache_hit"] = True
            with self._lock:
                self.stats_counters["completed"] += 1
        self.events.emit(
            "job.done", handle.request_id, key=handle.key,
            status=envelope.get("status", "error"),
            cache_hit=bool(envelope.get("cache_hit")), joined=True)
        handle.future.set_result(envelope)

    def _count(self, stat: str) -> None:
        with self._lock:
            self.stats_counters[stat] += 1

    def _retry_after_estimate(self, depth: int) -> float:
        """When a shed caller should retry: roughly one queue drain.

        Estimated as the observed p50 mapping latency times the number
        of worker "waves" the backlog represents, clamped to
        ``[0.05s, 30s]`` (0.25s stands in for the p50 before any job
        has completed).
        """
        latency = self.metrics.histograms.get("serve.latency_s")
        p50 = (latency.percentile(50.0)
               if latency is not None and latency.count else 0.0)
        if p50 <= 0.0:
            p50 = 0.25
        waves = max(1.0, depth / max(1, self.config.workers))
        return min(30.0, max(0.05, p50 * waves))

    @property
    def pipeline_width(self) -> int:
        """Concurrent requests one pipelined protocol connection may
        dispatch (see ``repro.serve.protocol``): enough to keep every
        worker busy, with headroom to fill a bounded queue."""
        width = max(4, 2 * max(1, self.config.workers))
        if self.config.max_queue_depth is not None:
            width = max(width, self.config.max_queue_depth + 1)
        return width

    def _observe(self, name: str, value: float) -> None:
        """Record into the always-on server histogram (and mirror the
        global session when profiling is enabled)."""
        self.metrics.histogram(name).observe(value)
        if OBS.enabled:
            OBS.metrics.histogram(name).observe(value)

    def _set_queue_depth_locked(self) -> None:
        """Refresh the queue-depth gauge/histogram from the in-flight
        table itself (the single source of truth — callers hold the
        lock, so the gauge can never go stale or negative)."""
        depth = len(self._inflight)
        self.metrics.gauge("serve.queue_depth").set(depth)
        self.metrics.histogram("serve.queue_depth").observe(depth)
        if OBS.enabled:
            OBS.metrics.gauge("serve.queue_depth").set(depth)

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of server, cache and warm-state stats."""
        from repro.serve.state import _STATES

        with self._lock:
            counters = dict(self.stats_counters)
            queue_depth = len(self._inflight)
        states = {
            key: dict(state.stats) for key, state in sorted(_STATES.items())
        }
        return {
            "workers": self.config.workers,
            "queue_depth": queue_depth,
            "counters": counters,
            "cache": {"entries": len(self.cache), **self.cache.stats},
            "warm_states": states,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Everything scrapeable, in the ``Metrics.snapshot`` shape.

        Combines the lifecycle counters (``serve.jobs`` …), the cache
        tier counters (``serve.cache.*``), warm-state cold-start
        counters (``serve.state.*``), the queue-depth/uptime gauges and
        the always-on percentile histograms.  This is what the
        protocol's ``metrics`` verb answers and what
        :func:`repro.obs.expo.format_prometheus` renders, so a running
        server can be scraped without restart (and without the global
        profiling session).
        """
        from repro.serve.state import _STATES

        with self._lock:
            counters = {
                f"serve.{name}": value
                for name, value in self.stats_counters.items()
            }
            queue_depth = len(self._inflight)
        for name, value in self.cache.stats.items():
            counters[f"serve.cache.{name}"] = value
        for _, state in sorted(_STATES.items()):
            for name, value in state.stats.items():
                counters[f"serve.state.{name}"] = (
                    counters.get(f"serve.state.{name}", 0) + value)
        snap = self.metrics.snapshot()
        gauges = dict(snap["gauges"])
        gauges["serve.queue_depth"] = queue_depth
        gauges["serve.uptime_s"] = time.monotonic() - self._started
        gauges["serve.cache.entries"] = len(self.cache)
        gauges["serve.events_buffered"] = len(self.events)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": snap["histograms"],
        }

    def health_snapshot(self) -> Dict[str, Any]:
        """A cheap liveness/readiness summary for the ``health`` verb."""
        with self._lock:
            counters = dict(self.stats_counters)
            queue_depth = len(self._inflight)
        return {
            "status": "shutting_down" if self._closed else "ok",
            "uptime_s": time.monotonic() - self._started,
            "workers": self.config.workers,
            "queue_depth": queue_depth,
            "jobs": counters["jobs"],
            "completed": counters["completed"],
            "errors": counters["errors"],
            "timeouts": counters["timeouts"],
            "degraded": counters["degraded"],
            "shed": counters["shed"],
            "max_queue_depth": self.config.max_queue_depth,
            "cache_entries": len(self.cache),
            "events_buffered": len(self.events),
        }

    def merged_obs(self) -> Optional[ObsReport]:
        """All collected per-job profiles folded into one report."""
        with self._lock:
            reports = list(self.obs_reports)
        return merge_reports(reports)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) drain the pool."""
        already = self._closed
        self._closed = True
        self._pool.shutdown(wait=wait)
        if not already:
            self.events.emit("server.shutdown",
                             jobs=self.stats_counters["jobs"])
            self.events.close()

    def __enter__(self) -> "MappingServer":
        """Context-manager entry (shuts the pool down on exit)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: drain and close the pool."""
        self.shutdown()
