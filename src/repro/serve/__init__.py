"""``repro.serve`` — mapping-as-a-service with warm shared state.

The repeated-request shape of physically-aware flows (map→place loops,
mapper fusion, suite regeneration) is exactly what a resident service
amortises: the MSU library is parsed once, pattern graphs and the
matcher's pattern forest are built once and shared read-only by a
worker pool, and results are cached content-addressed by (netlist hash,
library hash, canonical options) with LRU bounds and optional disk
spill.

Scale-out lives in ``repro.serve.cluster``: a :class:`ClusterRouter`
consistent-hashes jobs across N shard servers sharing one disk-spill
cache tier, with bounded queues, load shedding (``retry_after_s``) and
automatic failover off dead shards — behind the exact same protocol
surface, so every client and frontend below works on a cluster too.

Entry points:

* Python — ``Client.in_process()`` / ``Client.subprocess()`` /
  ``Client.connect(host, port)`` — plus ``AsyncClient`` for pipelined
  (many-in-flight) traffic over one connection;
* wire — ``python -m repro.serve`` (stdio JSON lines, or ``--socket``;
  ``--cluster N`` serves an N-shard cluster instead of one server);
* CLI — ``python -m repro.flow table1 --server`` routes the table
  drivers through an in-process service (``--cluster N`` shards it).

See ``docs/SERVING.md`` for the protocol, cache-keying and degradation
rules, and ``docs/OPERATIONS.md`` for deploying and sizing clusters.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import AsyncClient, Client, ServeProtocolError
from repro.serve.cluster import (
    ClusterConfig,
    ClusterRouter,
    HashRing,
    route_key,
)
from repro.serve.driver import run_table1_served, run_table2_served
from repro.serve.jobs import (
    JobError,
    JobSpec,
    build_payload,
    job_key,
    library_hash,
    network_hash,
    payload_hash,
)
from repro.serve.protocol import handle_request, serve_socket, serve_stream
from repro.serve.server import (
    JobCancelled,
    JobHandle,
    MappingServer,
    ServerClosed,
    ServerConfig,
    ServerOverloaded,
)
from repro.serve.state import WarmState, reset_warm_states, warm_state_for

__all__ = [
    "Client",
    "AsyncClient",
    "ServeProtocolError",
    "ClusterRouter",
    "ClusterConfig",
    "HashRing",
    "route_key",
    "ServerOverloaded",
    "ServerClosed",
    "JobSpec",
    "JobError",
    "JobHandle",
    "JobCancelled",
    "MappingServer",
    "ServerConfig",
    "ResultCache",
    "WarmState",
    "warm_state_for",
    "reset_warm_states",
    "job_key",
    "network_hash",
    "library_hash",
    "build_payload",
    "payload_hash",
    "handle_request",
    "serve_stream",
    "serve_socket",
    "run_table1_served",
    "run_table2_served",
]
