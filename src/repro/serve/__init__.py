"""Production serving layer: job queue, result cache, HTTP wind-product API.

The ROADMAP's north star is a system that serves wind products to heavy
traffic, but the rest of the repo runs one-shot CLI invocations.  This
package is the missing operational layer -- stdlib-only, in the spirit
of real-time deployments of this algorithm family (embedded PIV
pipelines, operational cloud-motion forecasting):

* :mod:`repro.serve.jobs`    -- the validated job request model and its
  canonical dedup fingerprint,
* :mod:`repro.serve.queue`   -- the in-memory scheduling core: request
  deduplication, bounded depth (explicit backpressure), a priority
  heap, lease grants with heartbeat reaping, bounded retry with
  exponential backoff, and a dead-letter quarantine,
* :mod:`repro.serve.cache`   -- a content-addressed result cache keyed
  on frame fingerprints + SMA parameters (LRU under a byte budget,
  atomic ``.npz`` artifacts), so identical requests never recompute,
* :mod:`repro.serve.workers` -- a supervised worker pool executing jobs
  under the PR-1 degradation ladder (a poisoned request degrades or
  dead-letters alone; the server survives), renewing queue leases via a
  supervisor thread that also respawns crashed workers, with the PR-2
  preparation cache and fork-pool pair sharding for sequence jobs,
* :mod:`repro.serve.slo`     -- latency/error-rate objectives with
  rolling burn rates (``serve.slo.*`` gauges) and the ``/healthz``
  breach verdict,
* :mod:`repro.serve.http`    -- the HTTP API (``POST /v1/jobs``,
  ``GET /v1/jobs[?state=dead]``, ``GET /v1/jobs/{id}/trace``,
  ``POST /v1/jobs/{id}/requeue``, ``GET /v1/products/{id}``,
  ``GET /healthz``, ``GET /metrics`` with Prometheus content
  negotiation) wired to :mod:`repro.obs`, plus graceful drain and the
  crash-safe flight recorder (:mod:`repro.obs.events`),
* :mod:`repro.serve.store`   -- the one durable job store: a
  cross-process :class:`SharedJobStore` (every node over one state
  directory, a checksummed write-ahead journal with flock-serialized
  replication and torn-write-tolerant replay, fleet-wide dedup and
  lease reaping, so a killed-and-restarted server resumes every
  accepted job) and the :class:`NodeRegistry` heartbeat roster,
* :mod:`repro.serve.frontend` -- the asyncio HTTP frontend: one event
  loop multiplexing thousands of clients over the
  :func:`~repro.serve.http.route` dispatcher.

Serve-mode chaos (``repro serve --chaos``) arms a seeded
:class:`~repro.reliability.injection.ServeChaosPlan` that crashes,
stalls, and transiently fails workers deterministically -- the test
harness for all of the above.  ``repro serve`` is the CLI entry point
and ``repro serve-admin`` the dead-letter console; see
``docs/serving.md``.
"""

from __future__ import annotations

from ..reliability.injection import ServeChaosPlan
from .cache import ResultCache, result_key
from .frontend import AsyncFrontend, make_async_server
from .http import ServeApp, route
from .jobs import ACTIVE_STATES, JOB_STATES, Job, JobRequest, JobValidationError, ServeLimits
from .queue import JobQueue, LoadShedError, LoadShedPolicy, QueueFullError
from .slo import SLOConfig, SLOTracker
from .store import NodeRegistry, QueueJournal, SharedJobStore, default_node_id
from .workers import WorkerPool

__all__ = [
    "ACTIVE_STATES",
    "AsyncFrontend",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobValidationError",
    "LoadShedError",
    "LoadShedPolicy",
    "NodeRegistry",
    "QueueFullError",
    "QueueJournal",
    "ResultCache",
    "SLOConfig",
    "SLOTracker",
    "ServeApp",
    "ServeChaosPlan",
    "ServeLimits",
    "SharedJobStore",
    "WorkerPool",
    "default_node_id",
    "make_async_server",
    "result_key",
    "route",
]
