"""Broadcast-as-a-service: a long-lived query layer over the artifact store.

The paper's pipeline is one-shot: build a topology, compile a broadcast,
print the tables.  This package turns the compiled artifact store into a
*serving* system that answers ``(topology, shape, source, protocol,
policy) -> schedule/metrics`` queries at high request rates:

* :class:`~repro.service.engine.QueryEngine` — the sync core: LRU-bounded
  memory tier over the fingerprint-sharded
  :class:`~repro.core.store.ArtifactStore`, with *single-flight
  symmetry-class coalescing*: a batch of queries that map to the same
  source-equivalence class triggers exactly one representative compile
  and derives the members through the batched class engine;
* :mod:`~repro.service.runtime` — the runtime split (after doeff's
  ``AsyncRuntime`` / ``SimulationRuntime``): the same engine serves an
  asyncio front end (``repro-wsn serve``) and deterministic in-process
  tests with a virtual clock; the ``repro-wsn query`` CLI calls the
  engine directly;
* :mod:`~repro.service.wire` / :mod:`~repro.service.server` — the
  newline-delimited-JSON protocol and the asyncio TCP server;
* :mod:`~repro.service.client` — the retrying client: reconnect/resend
  with exponential backoff for idempotent queries, deadline-aware.

Steady-state cost is cache warmth, not compile speed: a warmed store
answers metrics queries from persisted counts without replaying or
recompiling anything (see ``benchmarks/perf_service.py``).  The
resilience layer — deadlines, bounded queues, circuit-breaker tier
demotion, graceful shutdown — is exercised by the seeded chaos suite
(``tests/test_faults.py``, driven by :mod:`repro.faults`).
"""

from .client import RetriesExhausted, RetryPolicy, ServiceClient
from .engine import (DEFAULT_MAX_ENTRIES, DeadlineExceeded, Overloaded,
                     Query, QueryEngine, QueryResult)
from .runtime import AsyncRuntime, Runtime, SimulationRuntime
from .server import BackgroundServer, run_server, serve
from .wire import (query_from_dict, query_to_dict, request_from_dict,
                   result_to_dict)

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DeadlineExceeded",
    "Overloaded",
    "Query",
    "QueryEngine",
    "QueryResult",
    "RetriesExhausted",
    "RetryPolicy",
    "Runtime",
    "AsyncRuntime",
    "SimulationRuntime",
    "ServiceClient",
    "BackgroundServer",
    "run_server",
    "serve",
    "query_from_dict",
    "query_to_dict",
    "request_from_dict",
    "result_to_dict",
]
