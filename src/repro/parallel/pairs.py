"""Process-pool sharding of a sequence's independent frame pairs.

The pairwise estimates of a T-frame sequence are mutually independent --
pair ``m`` reads frames ``m`` and ``m+1`` and nothing else -- so they
shard perfectly.  This module is the multi-core analogue of the paper's
observation that the MasPar keeps all PEs busy because every pixel (and
every pair) runs the same schedule on private data.

Workers are plain ``multiprocessing`` pool processes.  Each worker holds
its own :class:`~repro.core.prep.FramePreparationCache`, so a worker that
receives adjacent pairs still fits shared frames once.  Because the
per-pair computation is a pure function of the two frames, the pool
returns fields bit-identical to the sequential path, in pair order,
regardless of worker count or scheduling.

Two frame **transports** are supported:

``pickle`` (default, the bit-identity reference)
    Tasks ride the pool's pipe.  On fork platforms the frame list is
    staged in a module global *before* the pool forks, so workers
    inherit every frame copy-on-write and tasks carry only indices --
    no frame is ever re-pickled, fixing the old per-pair payload tax.
    Workers additionally memoize frames per-process by content
    fingerprint, so even the non-fork fallback (frames embedded in
    tasks) canonicalizes each distinct frame once.

``shm``
    Frames are published once into a named shared-memory
    :class:`~repro.bus.ring.FrameRing` (with their fitted preparation
    planes) and dense fields return through a
    :class:`~repro.bus.ring.ResultRing`; tasks and results carry only
    slot indices plus scalar metadata.  Bit-identical to ``pickle`` --
    the planes are the same float64 bytes, and workers seed their
    preparation caches from the ring instead of refitting.

Top-level functions only: pool workers import this module by name, so
the task callables must be picklable module attributes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Sequence

from ..obs import absorb_payload, worker_init, worker_payload
from ..obs.metrics import METRICS
from ..obs.tracing import TRACER
from ..options import TrackOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.field import MotionField
    from ..core.sma import Frame, SMAnalyzer

#: Frame transports the pools accept.
TRANSPORTS = ("pickle", "shm")

#: Per-worker state, populated by the pool initializer.
_WORKER_STATE: dict = {}

#: Frames staged for fork inheritance: set in the parent immediately
#: before the pool forks, so children share the list copy-on-write and
#: tasks address frames by index instead of re-pickling them.
_POOL_FRAMES: Sequence | None = None

_RING_COUNTER = itertools.count()


def resolve_transport(transport: str) -> str:
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r} (choose from {TRANSPORTS})")
    return transport


def _ring_name(tag: str) -> str:
    """A collision-free ring name for one pool's lifetime."""
    return f"{tag}-{os.getpid()}-{next(_RING_COUNTER)}-{os.urandom(3).hex()}"


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the loaded native kernel) when present."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _start_method(ctx) -> str:
    return getattr(ctx, "_name", None) or ctx.get_start_method()


def _frame_bytes(frame) -> int:
    surface = frame.surface.nbytes
    return surface + (frame.intensity.nbytes if frame.intensity is not None else 0)


def _init_pair_worker(
    config,
    pixel_km: float,
    ridge: float,
    tracing: bool = False,
    options: TrackOptions = TrackOptions(),
    frame_ring: str | None = None,
    result_ring: str | None = None,
) -> None:
    from ..core.prep import FramePreparationCache
    from ..core.sma import SMAnalyzer

    worker_init(tracing)
    _WORKER_STATE.clear()
    _WORKER_STATE["analyzer"] = SMAnalyzer(
        config, pixel_km=pixel_km, ridge=ridge, options=options
    )
    _WORKER_STATE["cache"] = FramePreparationCache(max_frames=4)
    _WORKER_STATE["frame_memo"] = {}
    if frame_ring is not None:
        from ..bus.ring import FrameRing, ResultRing

        _WORKER_STATE["frame_ring"] = FrameRing.attach(frame_ring, timeout=10.0)
        _WORKER_STATE["result_ring"] = ResultRing.attach(result_ring, timeout=10.0)


def _memoized_frame(fingerprint: str, frame):
    """Per-worker frame memo: one canonicalized Frame per distinct content."""
    memo = _WORKER_STATE["frame_memo"]
    cached = memo.get(fingerprint)
    if cached is not None:
        METRICS.inc("pool.frame_memo.hit")
        return cached
    if len(memo) >= 8:
        memo.pop(next(iter(memo)))
    memo[fingerprint] = frame
    return frame


def _ring_frame(seq: int):
    """Read frame ``seq`` from the attached ring, seeding the prep cache.

    Batch rings are sized to the whole sequence, so slots are never
    overwritten and the zero-copy view is stable for the worker's
    lifetime -- the frame bytes are mapped, not transferred.
    """
    ring = _WORKER_STATE["frame_ring"]
    memo = _WORKER_STATE["frame_memo"]
    key = f"seq:{seq}"
    cached = memo.get(key)
    if cached is not None:
        METRICS.inc("pool.frame_memo.hit")
        return cached
    bus_frame = ring.read_frame(seq, copy=False)
    if bus_frame.preparation is not None:
        _WORKER_STATE["cache"].seed(bus_frame.preparation)
    METRICS.inc("bus.bytes_avoided", ring.slot_bytes)
    if len(memo) >= 8:
        memo.pop(next(iter(memo)))
    memo[key] = bus_frame.frame
    return bus_frame.frame


def _track_pair_task(task: tuple) -> tuple:
    """One pair on any transport.

    Task shapes: ``("idx", m)`` fork-inherited frames, ``("obj", m,
    fp_before, before, fp_after, after)`` frames embedded (non-fork
    fallback), ``("shm", m, seq_before, seq_after)`` ring slots.
    """
    kind, index = task[0], task[1]
    if kind == "idx":
        before, after = _POOL_FRAMES[index], _POOL_FRAMES[index + 1]
    elif kind == "obj":
        before = _memoized_frame(task[2], task[3])
        after = _memoized_frame(task[4], task[5])
    else:
        before, after = _ring_frame(task[2]), _ring_frame(task[3])
    with TRACER.span("pair", pair=index):
        field = _WORKER_STATE["analyzer"].track_pair(
            before, after, cache=_WORKER_STATE["cache"]
        )
    if kind == "shm":
        seq = _WORKER_STATE["result_ring"].publish_field(index, field)
        return index, ("seq", seq, field.metadata), worker_payload()
    return index, ("field", field, None), worker_payload()


def track_pairs_in_pool(
    analyzer: "SMAnalyzer",
    frame_list: Sequence["Frame"],
    workers: int,
    transport: str = "pickle",
) -> list["MotionField"]:
    """All consecutive-pair fields of ``frame_list``, computed in a pool.

    Returns the same list :meth:`SMAnalyzer.track_sequence` would build
    sequentially -- same order, bit-identical contents -- on either
    transport.
    """
    resolve_transport(transport)
    if transport == "shm":
        return _track_pairs_shm(analyzer, frame_list, workers)
    return _track_pairs_pickle(analyzer, frame_list, workers)


def _track_pairs_pickle(
    analyzer: "SMAnalyzer", frame_list: Sequence["Frame"], workers: int
) -> list["MotionField"]:
    global _POOL_FRAMES
    from ..core.prep import frame_fingerprint

    n_tasks = len(frame_list) - 1
    ctx = _pool_context()
    fork = _start_method(ctx) == "fork"
    if fork:
        tasks = [("idx", m) for m in range(n_tasks)]
        _POOL_FRAMES = list(frame_list)
        # Every task after the first two frames rides the pipe payload-free.
        for frame in frame_list:
            METRICS.inc("pool.frame_bytes_avoided", _frame_bytes(frame))
    else:  # pragma: no cover - non-fork platforms
        fps = [
            frame_fingerprint(f.surface, f.intensity, analyzer.config)
            for f in frame_list
        ]
        tasks = [
            ("obj", m, fps[m], frame_list[m], fps[m + 1], frame_list[m + 1])
            for m in range(n_tasks)
        ]
    results: list = [None] * n_tasks
    try:
        with ctx.Pool(
            processes=min(workers, n_tasks),
            initializer=_init_pair_worker,
            initargs=(
                analyzer.config,
                analyzer.pixel_km,
                analyzer.ridge,
                TRACER.enabled,
                analyzer.options,
            ),
        ) as pool:
            for index, (_, field, _), payload in pool.imap_unordered(
                _track_pair_task, tasks
            ):
                results[index] = field
                absorb_payload(payload)
    finally:
        _POOL_FRAMES = None
    return results


def _track_pairs_shm(
    analyzer: "SMAnalyzer", frame_list: Sequence["Frame"], workers: int
) -> list["MotionField"]:
    from ..bus.ring import FrameRing, ResultRing
    from ..core.prep import FramePreparationCache

    n_tasks = len(frame_list) - 1
    height, width = frame_list[0].shape
    has_intensity = any(f.intensity is not None for f in frame_list)
    name = _ring_name("pairs")
    frame_ring = FrameRing.create_frames(
        name,
        capacity=len(frame_list),
        height=height,
        width=width,
        intensity=has_intensity,
        prep=True,
    )
    result_ring = ResultRing.create_results(
        f"{name}-out",
        capacity=min(n_tasks, 2 * workers + 2),
        height=height,
        width=width,
        params=True,
    )
    results: list = [None] * n_tasks
    try:
        cache = FramePreparationCache(max_frames=4)
        for frame in frame_list:
            # Same lookup prepare_frames() performs, so the fingerprint
            # (and the fitted planes) match what a worker would compute.
            prep = cache.get(frame.surface, frame.intensity, analyzer.config)
            frame_ring.publish_frame(frame, preparation=prep, pixel_km=analyzer.pixel_km)
        tasks = [("shm", m, m, m + 1) for m in range(n_tasks)]
        with _pool_context().Pool(
            processes=min(workers, n_tasks),
            initializer=_init_pair_worker,
            initargs=(
                analyzer.config,
                analyzer.pixel_km,
                analyzer.ridge,
                TRACER.enabled,
                analyzer.options,
                name,
                f"{name}-out",
            ),
        ) as pool:
            for index, (_, seq, metadata), payload in pool.imap_unordered(
                _track_pair_task, tasks
            ):
                _, field = result_ring.read_field(seq, metadata=metadata)
                result_ring.mark_consumed(seq)
                results[index] = field
                absorb_payload(payload)
    finally:
        frame_ring.unlink()
        frame_ring.close()
        result_ring.unlink()
        result_ring.close()
    return results


def _init_ladder_worker(
    config,
    hs_iterations: int,
    tracing: bool = False,
    options: TrackOptions = TrackOptions(),
    frame_ring: str | None = None,
    result_ring: str | None = None,
) -> None:
    from ..core.prep import FramePreparationCache
    from ..reliability.degrade import DegradationLadder

    worker_init(tracing)
    _WORKER_STATE.clear()
    _WORKER_STATE["ladder"] = DegradationLadder(
        config, hs_iterations=hs_iterations, options=options
    )
    _WORKER_STATE["prep_cache"] = FramePreparationCache(max_frames=4)
    if frame_ring is not None:
        from ..bus.ring import FrameRing, ResultRing

        _WORKER_STATE["frame_ring"] = FrameRing.attach(frame_ring, timeout=10.0)
        _WORKER_STATE["result_ring"] = ResultRing.attach(result_ring, timeout=10.0)


def _ladder_pair_task(task: tuple) -> tuple:
    (index, before, after, machine, planned, dt, int_b, int_a, fit_images) = task
    t0 = time.perf_counter()
    with TRACER.span("pair", pair=index):
        result, steps = _WORKER_STATE["ladder"].track_pair(
            before,
            after,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=int_b,
            intensity_after=int_a,
            prep_cache=_WORKER_STATE["prep_cache"],
            fit_images=fit_images,
        )
    wall = time.perf_counter() - t0
    return index, result, steps, wall, worker_payload()


def _ladder_pair_task_shm(task: tuple) -> tuple:
    """Ladder task with frames read from (and planes returned via) rings.

    Live rings *can* lap a slow worker; a missed or torn slot raises and
    the runner's per-pair fault handling takes over (interpolation rung),
    exactly like a failed disk fetch.
    """
    (index, seq_b, seq_a, machine, planned, dt, fit_images) = task
    ring = _WORKER_STATE["frame_ring"]
    t0 = time.perf_counter()
    bf_b = ring.read_frame(seq_b, copy=True)
    bf_a = ring.read_frame(seq_a, copy=True)
    METRICS.inc("bus.bytes_avoided", 2 * ring.slot_bytes)
    with TRACER.span("pair", pair=index):
        result, steps = _WORKER_STATE["ladder"].track_pair(
            bf_b.frame.surface,
            bf_a.frame.surface,
            machine,
            planned,
            dt_seconds=dt,
            intensity_before=bf_b.frame.intensity,
            intensity_after=bf_a.frame.intensity,
            prep_cache=_WORKER_STATE["prep_cache"],
            fit_images=fit_images,
        )
    wall = time.perf_counter() - t0
    seq = _WORKER_STATE["result_ring"].publish_planes(
        index, result.u, result.v, result.error
    )
    slim = (result.rung, result.segment_rows, result.ledger, result.seconds, result.detail)
    return index, ("seq", seq, slim), steps, wall, worker_payload()


class LadderPool:
    """Pool of :class:`~repro.reliability.degrade.DegradationLadder` workers.

    Used by the streaming runner's ``workers`` mode: the main process
    keeps doing everything order-sensitive (disk fetches, ledger
    charges, report events, checkpoints) while the pure per-pair
    computation runs in the pool.  Results are merged strictly in pair
    order, so the run's field, ledger and report are bit-identical to
    the sequential path.

    With ``transport="shm"`` the pool lazily creates a frame ring and a
    result ring on first submit; each distinct frame is published once
    (keyed by array identity -- the runner hands pair ``m+1`` the same
    ``after`` array object it handed pair ``m`` as ``before``) and
    workers receive only slot indices.
    """

    def __init__(
        self,
        config,
        hs_iterations: int,
        workers: int,
        options: TrackOptions = TrackOptions(),
        transport: str = "pickle",
    ) -> None:
        self.transport = resolve_transport(transport)
        self.workers = workers
        self._config = config
        self._hs_iterations = hs_iterations
        self._options = options
        self._pool = None
        self._frame_ring = None
        self._result_ring = None
        self._published: dict[int, int] = {}  # id(array) -> ring seq
        self._pending_results = 0
        if transport == "pickle":
            self._pool = _pool_context().Pool(
                processes=workers,
                initializer=_init_ladder_worker,
                initargs=(config, hs_iterations, TRACER.enabled, options),
            )

    @property
    def ring_name(self) -> str | None:
        return self._frame_ring.name if self._frame_ring is not None else None

    def _ensure_shm(self, shape: tuple[int, int], has_intensity: bool) -> None:
        from ..bus.ring import FrameRing, ResultRing

        if self._pool is not None:
            return
        name = _ring_name("ladder")
        # Wave scheduling bounds in-flight pairs to ~workers, so a slot
        # is reused only long after both of its pairs completed.
        self._frame_ring = FrameRing.create_frames(
            name,
            capacity=4 * self.workers + 16,
            height=shape[0],
            width=shape[1],
            intensity=has_intensity,
            prep=False,
        )
        self._result_ring = ResultRing.create_results(
            f"{name}-out",
            capacity=2 * self.workers + 4,
            height=shape[0],
            width=shape[1],
            params=False,
        )
        self._pool = _pool_context().Pool(
            processes=self.workers,
            initializer=_init_ladder_worker,
            initargs=(
                self._config,
                self._hs_iterations,
                TRACER.enabled,
                self._options,
                name,
                f"{name}-out",
            ),
        )

    def _publish_once(self, array, intensity) -> int:
        # The memo holds the array itself, not just its id: a held
        # reference pins the id so a freed array's recycled address can
        # never alias a stale entry.
        key = id(array)
        entry = self._published.get(key)
        if entry is not None and entry[1] is array:
            # Reuse only while the slot is comfortably inside the ring:
            # leave a 2*workers margin for publishes that land while
            # the reading worker is still in flight.
            horizon = self._frame_ring.write_cursor - self._frame_ring.capacity
            if entry[0] > horizon + 2 * self.workers:
                METRICS.inc("pool.frame_memo.hit")
                return entry[0]
        from ..core.sma import Frame

        frame = Frame(surface=array, intensity=intensity)
        seq = self._frame_ring.publish_frame(frame)
        if len(self._published) > 8 * self.workers:
            self._published.clear()
        self._published[key] = (seq, array)
        return seq

    def submit(self, task: tuple):
        """Dispatch one `_ladder_pair_task` tuple; returns an AsyncResult."""
        if self.transport == "shm":
            (index, before, after, machine, planned, dt, int_b, int_a, fit) = task
            self._ensure_shm(
                before.shape, int_b is not None or int_a is not None
            )
            seq_b = self._publish_once(before, int_b)
            seq_a = self._publish_once(after, int_a)
            shm_task = (index, seq_b, seq_a, machine, planned, dt, fit)
            return self._pool.apply_async(_ladder_pair_task_shm, (shm_task,))
        return self._pool.apply_async(_ladder_pair_task, (task,))

    def resolve(self, handle):
        """Unwrap one submitted pair: ``(result, steps, wall, payload)``.

        On the shm transport the dense planes are read (and the slot
        released) here, in the main process, rebuilding the same
        :class:`~repro.reliability.degrade.RungResult` the pickle
        transport returns.
        """
        index, result, steps, wall, payload = handle.get()
        if self.transport == "shm" and isinstance(result, tuple) and result[0] == "seq":
            from ..reliability.degrade import RungResult

            _, seq, (rung, segment_rows, ledger, seconds, detail) = result
            ring_index, u, v, error = self._result_ring.read_planes(seq)
            self._result_ring.mark_consumed(seq)
            assert ring_index == index
            result = RungResult(
                u=u, v=v, error=error, rung=rung, segment_rows=segment_rows,
                ledger=ledger, seconds=seconds, detail=detail,
            )
        return index, result, steps, wall, payload

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
        self._cleanup_rings()

    def _cleanup_rings(self) -> None:
        for ring in (self._frame_ring, self._result_ring):
            if ring is not None:
                ring.unlink()
                ring.close()
        self._frame_ring = self._result_ring = None

    def __enter__(self) -> "LadderPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        self._cleanup_rings()
