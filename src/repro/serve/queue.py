"""Priority job queue core: leases, retry/backoff, dead-letter quarantine.

The admission contract, in order of evaluation on submit:

1. **Deduplication** -- a request whose fingerprint matches a job that
   is still active (pending, running, or retrying) returns that job
   instead of queuing a duplicate (the in-flight analogue of the result
   cache; completed jobs do *not* dedupe, so a re-request flows through
   the content-addressed result cache and is served without
   recomputation).
2. **Backpressure** -- when ``max_depth`` jobs are already queued
   (pending + retrying) the submit raises :class:`QueueFullError`; the
   HTTP layer turns that into a 429 with a ``Retry-After`` hint derived
   from the queue's measured drain rate.  The queue never grows
   unboundedly and never silently drops an accepted job.

Ordering is strict: higher ``priority`` first, FIFO (submission order)
within a priority.  A ``retrying`` job re-enters the schedule at its
original priority once its backoff expires.

**Leases.** :meth:`JobQueue.claim` grants a lease: an opaque token plus
a heartbeat deadline.  Workers renew the lease while they compute;
:meth:`JobQueue.reap` requeues any running job whose lease expired
(worker hung or died) or whose wall-clock ``job_timeout_seconds``
passed.  Reaping revokes the token, so a zombie worker that eventually
finishes cannot clobber the re-executed job -- its completion is
dropped as stale.

**Retry and dead-letter.** A failed or reaped job requeues as
``retrying`` with exponential backoff (the shared
:class:`~repro.reliability.retry.RetryPolicy`) until its attempt budget
is exhausted, at which point it moves to the ``dead`` state:
inspectable via ``GET /v1/jobs?state=dead`` and revivable with
``repro serve-admin requeue``.  A poison job quarantines alone; it
never takes the pool down and never blocks other work.

**No I/O.** This module is the in-memory scheduling core: dedup,
the priority heap, leases, retry and the dead-letter queue.  It opens
no files.  Every accepting mutation calls the :meth:`JobQueue._append`
hook with the lock held, and :class:`~repro.serve.store.SharedJobStore`,
the one durable store, journals the job there before the mutation is
acknowledged.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import secrets
import threading
import time
from collections import deque

from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from ..reliability.retry import RetryPolicy
from .jobs import ACTIVE_STATES, JOB_STATES, Job, JobRequest

#: Bounds on the drain-rate-derived ``Retry-After`` hint.
RETRY_AFTER_MIN = 0.1
RETRY_AFTER_MAX = 60.0

_LOG = get_logger("serve.queue")


class QueueFullError(RuntimeError):
    """Raised when the queue is at capacity; carries a retry hint."""

    def __init__(self, depth: int, retry_after_seconds: float = 1.0) -> None:
        super().__init__(
            f"job queue is full ({depth} pending); retry after "
            f"{retry_after_seconds:g} s"
        )
        self.depth = depth
        self.retry_after_seconds = retry_after_seconds


class LoadShedError(QueueFullError):
    """A submission shed by the priority policy (still a 429, but the
    client learns which priority would currently be admitted)."""

    def __init__(
        self,
        depth: int,
        retry_after_seconds: float,
        priority: int,
        threshold: int,
    ) -> None:
        super().__init__(depth, retry_after_seconds)
        self.priority = priority
        self.threshold = threshold
        self.args = (
            f"load shed: priority {priority} below the current admission "
            f"threshold {threshold} ({depth} jobs queued); retry after "
            f"{retry_after_seconds:g} s or resubmit at a higher priority",
        )


class LoadShedPolicy:
    """Priority-aware load shedding above a queue-depth watermark.

    Below ``watermark * max_depth`` queued jobs everything is admitted
    (the bounded queue's 429 still applies at capacity).  Past the
    watermark the admission bar rises with fullness: the threshold
    walks the sorted priorities of the jobs already queued, from the
    lowest (just past the watermark) to the highest (at capacity), and
    a submission with ``priority < threshold`` is shed.  Lowest-priority
    traffic is therefore shed first, and the highest-priority traffic
    is only ever refused by the hard capacity limit itself.
    """

    def __init__(self, watermark: float = 0.75) -> None:
        if not 0.0 < watermark <= 1.0:
            raise ValueError("shed watermark must be in (0, 1]")
        self.watermark = watermark

    def threshold(
        self, depth: int, max_depth: int, queued_priorities: list[int]
    ) -> int | None:
        """The minimum admissible priority, or None below the watermark."""
        floor_depth = max(1, int(self.watermark * max_depth + 0.999999))
        if depth < floor_depth or not queued_priorities:
            return None
        if max_depth <= floor_depth:
            fullness = 1.0
        else:
            fullness = min(1.0, (depth - floor_depth) / (max_depth - floor_depth))
        ranked = sorted(queued_priorities)
        return ranked[min(len(ranked) - 1, int(fullness * (len(ranked) - 1) + 1e-9))]

    def describe(self) -> dict:
        return {"watermark": self.watermark}


class JobQueue:
    """Bounded, deduplicating, lease-granting priority queue (in memory).

    Thread-safe: submits arrive from HTTP handler threads while worker
    threads claim/renew and the reaper revokes, so every mutation runs
    under one condition variable.
    """

    def __init__(
        self,
        max_depth: int = 64,
        *,
        lease_seconds: float = 15.0,
        job_timeout_seconds: float | None = None,
        retry_policy: RetryPolicy | None = None,
        on_recovery_seconds=None,
        recorder=None,
        on_terminal=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        if job_timeout_seconds is not None and job_timeout_seconds <= 0:
            raise ValueError("job_timeout_seconds must be > 0 when set")
        self.max_depth = max_depth
        self.lease_seconds = lease_seconds
        self.job_timeout_seconds = job_timeout_seconds
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, backoff_seconds=0.25, backoff_factor=2.0, jitter=0.0
        )
        #: Callback charged with modeled recovery seconds (backoffs) so
        #: the serving ledger accounts reaper/retry delay like any other
        #: stall; None outside a :class:`~repro.serve.http.ServeApp`.
        self.on_recovery_seconds = on_recovery_seconds
        #: Optional :class:`~repro.obs.events.FlightRecorder`: every
        #: lifecycle transition lands in the crash-safe flight journal.
        self.recorder = recorder
        #: Callback invoked with each job reaching a terminal state
        #: (done/dead) -- the SLO tracker's feed.  Called with the queue
        #: lock held; must not call back into the queue.
        self.on_terminal = on_terminal
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        #: (-priority, seq, job_id) min-heap -> highest priority, FIFO
        #: within; holds pending and retrying (possibly not yet due).
        self._heap: list[tuple[int, int, str]] = []
        self._active_by_fingerprint: dict[str, str] = {}
        self._seq = 0
        self._closed = False
        #: Wall-clock finish times of recent done/dead transitions --
        #: the drain-rate sample behind the Retry-After hint.
        self._finished_at: deque[float] = deque(maxlen=32)

    # -- submission -------------------------------------------------------------------

    def submit(self, request: JobRequest, priority: int = 0) -> tuple[Job, bool]:
        """Queue a request; returns ``(job, created)``.

        ``created`` is False when the request deduplicated onto an
        existing active (pending/running/retrying) job.  The job passes
        through :meth:`_append` before this method returns, so in the
        durable store acknowledgement implies durability.
        """
        fingerprint = request.fingerprint()
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed (server draining)")
            active_id = self._active_by_fingerprint.get(fingerprint)
            if active_id is not None:
                METRICS.inc("serve.queue.deduplicated")
                return self._jobs[active_id], False
            if self._depth_locked() >= self.max_depth:
                METRICS.inc("serve.queue.rejected")
                raise QueueFullError(self._depth_locked(), self._retry_after_locked())
            self._seq += 1
            job = Job(
                id=f"job-{self._seq:06d}",
                request=request,
                priority=int(priority),
                seq=self._seq,
                submitted_at=time.time(),
                # Deterministic function of the submit history so identical
                # histories journal to identical bytes; unique within a
                # state dir because seq never repeats.
                trace_id=hashlib.blake2b(
                    f"{self._seq}:{fingerprint}".encode(), digest_size=8
                ).hexdigest(),
            )
            self._jobs[job.id] = job
            self._active_by_fingerprint[fingerprint] = job.id
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.queue.submitted")
            self._publish_gauges()
            self._append(job)
            self._flight(
                "submitted", job, ts=job.submitted_at,
                priority=job.priority, kind=request.kind, dataset=request.dataset,
                fingerprint=fingerprint,
            )
            self._cond.notify()
            return job, True

    # -- worker side ------------------------------------------------------------------

    def claim(self, timeout: float | None = None, worker: str | None = None) -> Job | None:
        """Pop the highest-priority due job under a fresh lease.

        Blocks up to ``timeout`` (forever when None) on the queue's
        condition variable -- an idle claimer costs nothing until a
        submit, retry expiry, or close wakes it.  Returns None on
        timeout or when the queue has been closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job, next_due = self._try_claim_locked(worker)
                if job is not None:
                    return job
                if self._closed:
                    return None
                waits = []
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                if next_due is not None:
                    waits.append(max(0.0, next_due - time.time()) + 1e-3)
                self._cond.wait(min(waits) if waits else None)

    def _try_claim_locked(self, worker: str | None) -> tuple[Job | None, float | None]:
        """One non-blocking claim attempt (lock held): pop the highest
        priority due job and grant a lease on it.  Returns ``(job,
        next_retry_due)`` -- the second element lets blocking callers
        bound their wait on the earliest future retry."""
        job, next_due = self._pop_ready()
        if job is None:
            return None, next_due
        now = time.time()
        job.state = "running"
        job.attempts += 1
        job.started_at = now
        job.worker = worker
        job.lease_token = secrets.token_hex(8)
        job.lease_deadline = now + self.lease_seconds
        job.not_before = None
        if job.queue_wait_seconds is None:
            job.queue_wait_seconds = max(0.0, now - job.submitted_at)
            METRICS.observe("serve.queue.wait_seconds", job.queue_wait_seconds)
        METRICS.inc("serve.lease.granted")
        self._publish_gauges()
        self._append(job)
        self._flight("claimed", job, ts=now, lease_deadline=job.lease_deadline)
        return job, None

    def renew(self, job_id: str, lease_token: str, extend: float | None = None) -> bool:
        """Heartbeat: push the lease deadline out; False if the lease is
        stale (job reaped, finished, or re-claimed elsewhere)."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != "running" or job.lease_token != lease_token:
                return False
            job.lease_deadline = time.time() + (extend or self.lease_seconds)
            METRICS.inc("serve.lease.renewed")
            self._flight("lease_renewed", job, lease_deadline=job.lease_deadline)
            return True

    def complete(self, job_id: str, lease_token: str | None = None, **fields) -> Job | None:
        """Mark a job done; ``fields`` update the result bookkeeping.

        With ``lease_token`` given, a stale token (the job was reaped
        and possibly re-executed) drops the completion and returns None
        -- the zombie worker's result must not clobber the live job.
        """
        with self._cond:
            job = self._jobs[job_id]
            if lease_token is not None and (
                job.state != "running" or job.lease_token != lease_token
            ):
                METRICS.inc("serve.lease.stale_completions")
                log_event(
                    _LOG, logging.WARNING, "serve.stale_completion",
                    job=job_id, state=job.state,
                )
                return None
            return self._finish_locked(job, "done", fields)

    def fail(
        self,
        job_id: str,
        error: str,
        lease_token: str | None = None,
        retryable: bool = True,
    ) -> Job | None:
        """Record a failed attempt: requeue with backoff, or dead-letter.

        Retryable failures with budget left become ``retrying``; budget
        exhaustion (or ``retryable=False``) quarantines the job as
        ``dead``.  Stale lease tokens are dropped like in
        :meth:`complete`.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if lease_token is not None and (
                job.state != "running" or job.lease_token != lease_token
            ):
                METRICS.inc("serve.lease.stale_completions")
                return None
            return self._retry_or_dead_locked(job, error, retryable)

    def reap(self, now: float | None = None) -> list[Job]:
        """Requeue (or dead-letter) every running job whose lease
        expired or whose wall-clock timeout passed; returns them.

        This is what makes a hung or dead worker unable to strand a
        job: the lease token is revoked, so even if the worker wakes up
        later its completion is dropped as stale.
        """
        now = time.time() if now is None else now
        reaped: list[Job] = []
        with self._cond:
            for job in list(self._jobs.values()):
                if job.state != "running":
                    continue
                expired = job.lease_deadline is not None and job.lease_deadline < now
                timed_out = (
                    self.job_timeout_seconds is not None
                    and job.started_at is not None
                    and now - job.started_at > self.job_timeout_seconds
                )
                if not (expired or timed_out):
                    continue
                if timed_out and not expired:
                    reason = (
                        f"job exceeded wall-clock timeout "
                        f"{self.job_timeout_seconds:g} s"
                    )
                    METRICS.inc("serve.lease.timed_out")
                else:
                    reason = "lease expired (worker hung or died)"
                METRICS.inc("serve.lease.reaped")
                log_event(
                    _LOG, logging.WARNING, "serve.lease_reaped",
                    job=job.id, worker=job.worker, attempts=job.attempts,
                    reason=reason,
                )
                self._flight("reaped", job, ts=now, reason=reason)
                self._retry_or_dead_locked(job, reason, retryable=True)
                reaped.append(job)
        return reaped

    def requeue(self, job_id: str) -> Job:
        """Admin: revive a dead-letter job with a fresh attempt budget."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job {job_id!r}")
            if job.state != "dead":
                raise ValueError(
                    f"job {job_id} is {job.state!r}; only dead jobs can be requeued"
                )
            fingerprint = job.request.fingerprint()
            active = self._active_by_fingerprint.get(fingerprint)
            if active is not None:
                raise ValueError(
                    f"an active job ({active}) already carries this request; "
                    "wait for it instead of requeuing"
                )
            job.state = "pending"
            job.attempts = 0
            job.error = None
            job.not_before = None
            job.started_at = None
            job.finished_at = None
            job.queue_wait_seconds = None
            self._active_by_fingerprint[fingerprint] = job.id
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.dead.requeued")
            log_event(_LOG, logging.INFO, "serve.dead_requeued", job=job.id)
            self._publish_gauges()
            self._append(job)
            self._flight("requeued", job)
            self._cond.notify()
            return job

    # -- shared finish / retry internals (lock held) ----------------------------------

    def _finish_locked(self, job: Job, state: str, fields: dict) -> Job:
        job.state = state
        job.finished_at = time.time()
        if job.started_at is not None:
            job.wall_seconds = max(0.0, job.finished_at - job.started_at)
        for name, value in fields.items():
            setattr(job, name, value)
        worker = job.worker
        job.worker = job.lease_token = job.lease_deadline = None
        self._active_by_fingerprint.pop(job.request.fingerprint(), None)
        self._finished_at.append(job.finished_at)
        latency = max(0.0, job.finished_at - job.submitted_at)
        METRICS.observe("serve.job.latency_seconds", latency)
        self._publish_gauges()
        self._append(job)
        self._flight(
            "completed", job, ts=job.finished_at, worker=worker,
            cache_hit=job.cache_hit, result_key=job.result_key,
            latency_seconds=round(latency, 6),
        )
        if self.on_terminal is not None:
            self.on_terminal(job)
        self._cond.notify_all()
        return job

    def _retry_or_dead_locked(self, job: Job, error: str, retryable: bool) -> Job:
        job.error = error
        job.worker = job.lease_token = job.lease_deadline = None
        if retryable and job.attempts < self.retry_policy.max_attempts:
            backoff = self.retry_policy.backoff_for(job.attempts)
            job.state = "retrying"
            job.not_before = time.time() + backoff
            job.started_at = None
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            METRICS.inc("serve.retry.scheduled")
            METRICS.observe("serve.retry.backoff_seconds", backoff)
            if self.on_recovery_seconds is not None:
                self.on_recovery_seconds(backoff)
            log_event(
                _LOG, logging.INFO, "serve.retry_scheduled",
                job=job.id, attempt=job.attempts, backoff=round(backoff, 4),
                error=error,
            )
            self._flight(
                "retry_scheduled", job,
                backoff_seconds=round(backoff, 6), error=error,
            )
        else:
            job.state = "dead"
            job.not_before = None
            job.finished_at = time.time()
            self._active_by_fingerprint.pop(job.request.fingerprint(), None)
            self._finished_at.append(job.finished_at)
            METRICS.inc("serve.dead.total")
            log_event(
                _LOG, logging.ERROR, "serve.job_dead",
                job=job.id, attempts=job.attempts, error=error,
            )
            self._flight("dead_lettered", job, ts=job.finished_at, error=error)
            if self.on_terminal is not None:
                self.on_terminal(job)
        self._publish_gauges()
        self._append(job)
        self._cond.notify_all()
        return job

    # -- introspection ----------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def list_jobs(self, state: str | None = None, limit: int = 500) -> list[Job]:
        """Jobs (newest first), optionally filtered by lifecycle state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(
                f"unknown job state {state!r} (choose from {', '.join(JOB_STATES)})"
            )
        with self._cond:
            jobs = sorted(self._jobs.values(), key=lambda j: -j.seq)
            if state is not None:
                jobs = [j for j in jobs if j.state == state]
            return jobs[:limit]

    def depth(self) -> int:
        """Queued jobs -- pending + retrying (the backpressure quantity)."""
        with self._cond:
            return self._depth_locked()

    def in_flight(self) -> int:
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == "running")

    def outstanding(self) -> int:
        """Accepted but not finished (pending/running/retrying) -- the
        drain gate."""
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state in ACTIVE_STATES)

    def counts(self) -> dict[str, int]:
        with self._cond:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def queued_priorities(self) -> list[int]:
        """Sorted priorities of the queued (pending/retrying) jobs --
        the load-shed policy's admission-threshold input."""
        with self._cond:
            return sorted(
                j.priority
                for j in self._jobs.values()
                if j.state in ("pending", "retrying")
            )

    def retry_after_hint(self) -> float:
        """Current backpressure hint (seconds), drain-rate derived."""
        with self._cond:
            return self._retry_after_locked()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is pending, running, or retrying.

        A ``retrying`` job still counts as accepted work -- drain waits
        out its backoff and final attempt rather than abandoning it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while any(j.state in ACTIVE_STATES for j in self._jobs.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                due = [
                    j.not_before for j in self._jobs.values()
                    if j.state == "retrying" and j.not_before is not None
                ]
                if due:
                    until_due = max(0.0, min(due) - time.time()) + 1e-3
                    remaining = until_due if remaining is None else min(remaining, until_due)
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        """Refuse further submissions and wake blocked claimers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _append(self, job: Job) -> None:
        """Hook after every accepting mutation (lock held): the durable
        :class:`~repro.serve.store.SharedJobStore` journals ``job`` here;
        the in-memory core keeps nothing."""

    def _flight(self, event: str, job: Job, ts: float | None = None,
                worker: str | None = None, **fields) -> None:
        # Called with the lock held.  Best-effort lifecycle journaling:
        # the flight recorder is observability, never correctness, so a
        # disk hiccup here must not fail the queue mutation it rode on.
        if self.recorder is None:
            return
        try:
            self.recorder.record(
                event, job.id, trace_id=job.trace_id,
                attempt=job.attempts, worker=worker or job.worker,
                ts=ts, **fields,
            )
        except OSError:
            METRICS.inc("serve.flight.write_errors")

    # -- internals --------------------------------------------------------------------

    def _depth_locked(self) -> int:
        return sum(
            1 for j in self._jobs.values() if j.state in ("pending", "retrying")
        )

    def _retry_after_locked(self) -> float:
        depth = self._depth_locked()
        if len(self._finished_at) < 2:
            return 1.0
        span = self._finished_at[-1] - self._finished_at[0]
        if span <= 0:
            return RETRY_AFTER_MIN
        seconds_per_finish = span / (len(self._finished_at) - 1)
        # Time until a queue slot opens: one finish interval, scaled by
        # how far past capacity the caller found us.
        backlog = max(1, depth - self.max_depth + 1)
        return min(max(seconds_per_finish * backlog, RETRY_AFTER_MIN), RETRY_AFTER_MAX)

    def _pop_ready(self, now: float | None = None) -> tuple[Job | None, float | None]:
        """(next claimable job, earliest future retry due time)."""
        now = time.time() if now is None else now
        deferred: list[tuple[int, int, str]] = []
        job: Job | None = None
        next_due: float | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            candidate = self._jobs.get(entry[2])
            if candidate is None or candidate.state not in ("pending", "retrying"):
                continue  # stale heap entry from an earlier transition
            if (
                candidate.state == "retrying"
                and candidate.not_before is not None
                and candidate.not_before > now
            ):
                deferred.append(entry)
                next_due = (
                    candidate.not_before
                    if next_due is None
                    else min(next_due, candidate.not_before)
                )
                continue
            job = candidate
            break
        for entry in deferred:
            heapq.heappush(self._heap, entry)
        return job, next_due

    def _publish_gauges(self) -> None:
        counts = dict.fromkeys(JOB_STATES, 0)
        for j in self._jobs.values():
            counts[j.state] += 1
        METRICS.set_gauge("serve.queue.depth", float(counts["pending"] + counts["retrying"]))
        METRICS.set_gauge("serve.jobs.in_flight", float(counts["running"]))
        METRICS.set_gauge("serve.jobs.retrying", float(counts["retrying"]))
        METRICS.set_gauge("serve.dead.jobs", float(counts["dead"]))
        METRICS.set_gauge("serve.queue.retry_after_seconds", self._retry_after_locked())
