"""Serving worker pool: claims jobs, computes or cache-serves products.

Each worker is a thread in the server process.  The execution path
reuses the operational machinery of earlier layers rather than
reimplementing it:

* frames resolve deterministically from the dataset factories (the
  request is a pure description of content, so the result cache can be
  content-addressed),
* per-frame surface fits go through the shared, thread-safe
  :class:`~repro.core.prep.FramePreparationCache` -- concurrent jobs
  over the same sequence fit each frame once,
* pair jobs run under the PR-1
  :class:`~repro.reliability.degrade.DegradationLadder`: a request that
  cannot run at the planned segment size degrades (re-plan ->
  Horn-Schunck -> interpolation) instead of killing the worker,
* sequence jobs shard their independent pairs over the PR-2 fork pool
  (:func:`~repro.parallel.pairs.track_pairs_in_pool`) when the server
  is configured with ``pool_workers > 1`` -- bit-identical to the
  sequential path,
* every computed pair's :class:`~repro.maspar.cost.CostLedger` merges
  into the server-wide ledger, so ``GET /metrics`` reports modeled
  MasPar seconds and first-class Gaussian-elimination counts for the
  whole serving session.  Cache hits merge nothing -- the absence of
  new GE solves is the observable proof that no recomputation happened.

**Failure handling.**  Workers hold a queue lease while they execute; a
pool supervisor thread renews those leases every ``lease_seconds / 3``,
runs the queue reaper, and respawns any worker thread that died.  A job
that raises is handed back to the queue (``fail``), which retries it
with backoff or quarantines it dead -- the server never dies on a
poisoned request.  An injected :class:`ChaosWorkerCrash` is the one
exception the loop does *not* absorb into the job: the thread dies with
the job still leased, so recovery must flow through the reap -> requeue
-> respawn machinery this pool exists to prove out.

Workers block in the store's ``claim`` (no timeout): a local submit,
retry expiry or shutdown wakes them at once, and other nodes' submits
are seen within the store's short poll interval.
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np

from ..core.field import MotionField
from ..core.matching import valid_mask
from ..core.sma import SMAnalyzer
from ..data.datasets import Dataset
from ..obs.log import get_logger, log_context, log_event
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..options import TrackOptions
from ..parallel.memory_plan import max_feasible_segment_rows
from ..parallel.parallel_sma import machine_for_image
from ..reliability.degrade import DegradationLadder
from ..reliability.injection import ChaosWorkerCrash, ServeChaosPlan
from .cache import result_key
from .jobs import Job

_LOG = get_logger("serve")


def _dataset_for(job: Job) -> Dataset:
    from ..data.datasets import florida_thunderstorm, hurricane_frederic, hurricane_luis

    factories = {
        "florida": florida_thunderstorm,
        "frederic": hurricane_frederic,
        "luis": hurricane_luis,
    }
    request = job.request
    return factories[request.dataset](
        size=request.size, n_frames=request.frames, seed=request.seed
    )


class WorkerPool:
    """Supervised thread pool that drains the job queue.

    ``poll_seconds`` is the pause-check interval only; idle workers
    block in ``queue.claim``.
    """

    def __init__(
        self,
        app,
        workers: int = 2,
        poll_seconds: float = 0.2,
        chaos: ServeChaosPlan | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.app = app
        self.workers = workers
        self.poll_seconds = poll_seconds
        #: Worker identities carry the node id (``<node>/serve-worker-N``)
        #: so leases, reaping, restart revocation and flight events
        #: attribute to the right node across the fleet.
        self.worker_prefix = f"{app.node}/"
        self.chaos = chaos if chaos is not None and not chaos.is_empty else None
        self._threads: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        #: thread name -> (job id, lease token); the supervisor renews
        #: these leases.  An entry disappears when the attempt finishes
        #: *or the thread dies* (``finally``), after which the lease
        #: expires and the reaper requeues the job.
        self._executing: dict[str, tuple[str, str]] = {}
        self._exec_lock = threading.Lock()
        #: Worker thread names asked to exit for a rolling restart.
        self._rolling: set[str] = set()

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            self._threads.append(self._spawn(index))
        # The supervisor runs even with zero workers: a worker-less
        # fleet frontend still renews nothing but must *reap* -- it may
        # be the surviving node that requeues a dead node's leases --
        # and still heartbeats its registry entry.
        self._supervisor = threading.Thread(
            target=self._supervise, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self, slot: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._loop,
            name=f"{self.worker_prefix}serve-worker-{slot}",
            daemon=True,
        )
        thread.start()
        return thread

    def active_jobs(self) -> int:
        """Jobs this pool is executing right now (heartbeat payload)."""
        with self._exec_lock:
            return len(self._executing)

    def stop(self) -> None:
        self._stop.set()
        self.app.queue.close()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        if self._supervisor is not None:
            self._supervisor.join()
            self._supervisor = None

    def pause(self) -> None:
        """Stop claiming new jobs (running jobs finish); for tests/drain."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def restart_workers(self) -> int:
        """Rolling restart: signal each worker to exit after its current
        job; the supervisor respawns the slots.  Returns the count
        signaled."""
        count = len(self._threads)
        with self._exec_lock:
            for thread in self._threads:
                self._rolling.add(thread.name)
        return count

    # -- the supervisor ---------------------------------------------------------------

    def _supervise(self) -> None:
        """Renew leases, reap expired ones, respawn dead worker slots."""
        interval = max(0.05, self.app.queue.lease_seconds / 3.0)
        while not self._stop.wait(interval):
            with self._exec_lock:
                entries = list(self._executing.values())
            for job_id, token in entries:
                self.app.queue.renew(job_id, token)
            self.app.queue.reap()
            self.app.publish_node_heartbeat()
            for slot, thread in enumerate(self._threads):
                if self._stop.is_set():
                    break
                if not thread.is_alive():
                    replacement = self._spawn(slot)
                    self._threads[slot] = replacement
                    METRICS.inc("serve.workers.restarted")
                    log_event(
                        _LOG, logging.WARNING, "serve.worker_restarted",
                        slot=slot, died=thread.name, spawned=replacement.name,
                    )

    # -- the worker loop --------------------------------------------------------------

    def _loop(self) -> None:
        name = threading.current_thread().name
        while not self._stop.is_set():
            if self._paused.is_set():
                self._stop.wait(self.poll_seconds)
                continue
            with self._exec_lock:
                rolling = name in self._rolling
                self._rolling.discard(name)
            if rolling:  # rolling restart: exit; the supervisor respawns the slot
                return
            job = self.app.queue.claim(timeout=None, worker=name)
            if job is None:
                if self._stop.is_set() or self.app.queue.closed:
                    return
                continue
            token = job.lease_token
            with self._exec_lock:
                self._executing[name] = (job.id, token)
            try:
                # Every log line this attempt emits -- including from
                # library layers that know nothing about serving --
                # carries the job and trace identifiers.
                with log_context(job=job.id, trace=job.trace_id):
                    self.execute(job)
            except ChaosWorkerCrash as crash:
                # Simulated thread death: the job stays leased, the
                # supervisor's reaper requeues it, the supervisor
                # respawns this slot.  Do NOT fail the job here.
                METRICS.inc("serve.chaos.worker_crashes")
                log_event(
                    _LOG, logging.ERROR, "serve.chaos_worker_crash",
                    job=job.id, worker=name, error=str(crash),
                )
                return
            except Exception as exc:  # noqa: BLE001 -- the server must survive
                self.app.queue.fail(
                    job.id, f"{type(exc).__name__}: {exc}", lease_token=token
                )
                METRICS.inc("serve.jobs.failed")
                log_event(
                    _LOG, logging.ERROR, "serve.job_failed", job=job.id, error=str(exc)
                )
            finally:
                with self._exec_lock:
                    self._executing.pop(name, None)

    # -- job execution ----------------------------------------------------------------

    def _flight(self, event: str, job: Job, **fields) -> None:
        """Worker-side lifecycle events into the app's flight recorder."""
        recorder = getattr(self.app, "recorder", None)
        if recorder is None:
            return
        try:
            recorder.record(
                event, job.id, trace_id=job.trace_id, attempt=job.attempts,
                worker=threading.current_thread().name, **fields,
            )
        except OSError:
            METRICS.inc("serve.flight.write_errors")

    def execute(self, job: Job) -> None:
        """Resolve one job: result cache first, compute on miss.

        Chaos (when armed) strikes first, before any frame resolves --
        it can delay or kill an *attempt* but never touch the product.
        """
        token = job.lease_token
        if self.chaos is not None:
            applied = self.chaos.apply(job.seq, job.attempts)
            if applied == "stall":
                METRICS.inc("serve.chaos.stalls")
        with TRACER.span("serve.job", job=job.id, kind=job.request.kind):
            dataset = _dataset_for(job)
            request = job.request
            config = dataset.config.replace(n_zs=request.search, n_zt=request.template)
            if request.kind == "pair":
                frames = dataset.frames[request.pair : request.pair + 2]
            else:
                frames = list(dataset.frames)
            key = result_key(
                frames,
                config,
                dataset.pixel_km,
                kind=request.kind,
                search=request.search_mode,
                backend=request.backend,
            )

            cached = self.app.cache.get(key)
            if cached is not None:
                self._flight("cache_hit", job, key=key)
                done = self.app.queue.complete(
                    job.id, lease_token=token, cache_hit=True, result_key=key,
                    metadata={"model": cached.metadata.get("model")},
                )
                if done is not None:
                    METRICS.inc("serve.jobs.completed")
                    log_event(_LOG, logging.INFO, "serve.cache_hit", job=job.id, key=key)
                return

            compute_started = time.perf_counter()
            compute = (
                self._compute_pair if request.kind == "pair" else self._compute_sequence
            )
            field, rung = compute(frames, config, dataset.pixel_km, request.options)
            compute_seconds = time.perf_counter() - compute_started
            METRICS.observe("serve.compute.seconds", compute_seconds)
            self._flight("compute", job, seconds=round(compute_seconds, 6), rung=rung)
            write_started = time.perf_counter()
            self.app.cache.put(key, field)
            write_seconds = time.perf_counter() - write_started
            METRICS.observe("serve.cache.write_seconds", write_seconds)
            self._flight(
                "cache_write", job, seconds=round(write_seconds, 6), key=key
            )
            self.app.publish_ledger_gauges()
            done = self.app.queue.complete(
                job.id, lease_token=token, cache_hit=False, result_key=key, rung=rung,
                metadata={"model": field.metadata.get("model")},
            )
            if done is not None:
                METRICS.inc("serve.jobs.completed")
                log_event(_LOG, logging.INFO, "serve.computed", job=job.id, key=key)

    def _compute_pair(
        self,
        frames,
        config,
        pixel_km,
        options: TrackOptions,
    ) -> tuple[MotionField, int]:
        """One frame pair under the degradation ladder (bit-identical to
        ``track_dense`` on the healthy rung 0)."""
        before, after = frames
        shape = before.shape
        machine = machine_for_image(shape)
        layers = machine.layers_for_image(*shape)
        planned = max(1, max_feasible_segment_rows(config, layers, machine))
        dt = after.time_seconds - before.time_seconds
        if dt <= 0:
            dt = 1.0
        ladder = DegradationLadder(
            config,
            hs_iterations=self.app.hs_iterations,
            options=options,
        )
        result, steps = ladder.track_pair(
            before.surface,
            after.surface,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
            prep_cache=self.app.prep_cache,
        )
        if steps:
            METRICS.inc("serve.jobs.degraded")
        if result.ledger is not None:
            self.app.merge_ledger(result.ledger)
        field = MotionField(
            u=result.u,
            v=result.v,
            valid=valid_mask(shape, config),
            error=result.error,
            dt_seconds=float(dt),
            pixel_km=pixel_km,
            metadata={
                "model": "semi-fluid" if config.is_semifluid else "continuous",
                "config": config.name,
                "rung": result.rung,
                "search": options.search,
                "backend": options.backend,
            },
        )
        return field, result.rung

    def _compute_sequence(
        self,
        frames,
        config,
        pixel_km,
        options: TrackOptions,
    ) -> tuple[MotionField, int]:
        """Mean field over all pairs; fork-pool sharded when configured."""
        analyzer = SMAnalyzer(config, pixel_km=pixel_km, options=options)
        fields = analyzer.track_sequence(
            frames,
            workers=self.app.pool_workers,
            transport=getattr(self.app, "transport", "pickle"),
        )
        shape = frames[0].shape
        n = len(fields)
        sum_u = np.zeros(shape, dtype=np.float64)
        sum_v = np.zeros(shape, dtype=np.float64)
        sum_error = np.zeros(shape, dtype=np.float64)
        for f in fields:
            sum_u += f.u
            sum_v += f.v
            sum_error += f.error
        dts = []
        for m in range(n):
            dt = frames[m + 1].time_seconds - frames[m].time_seconds
            dts.append(dt if dt > 0 else 1.0)
        field = MotionField(
            u=sum_u / n,
            v=sum_v / n,
            valid=valid_mask(shape, config),
            error=sum_error / n,
            dt_seconds=float(np.mean(dts)),
            pixel_km=pixel_km,
            metadata={
                "model": "semi-fluid" if config.is_semifluid else "continuous",
                "config": config.name,
                "pairs": n,
                "search": options.search,
                "backend": options.backend,
            },
        )
        return field, 0
