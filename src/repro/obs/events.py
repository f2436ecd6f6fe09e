"""Job-lifecycle events and the crash-safe flight recorder.

The serve stack's WAL (:mod:`repro.serve.queue`) answers "what state is
every job in *now*"; this module answers "what *happened* to job X" --
the post-mortem question a crashed fleet raises.  Every lifecycle
transition (submitted, claimed, lease-renewed, retried, reaped,
dead-lettered, completed, cache-hit, plus the worker-side compute and
cache-write measurements) is appended as one flushed JSONL record to a
bounded ring of journal segments that survives SIGKILL, and the same
records power ``GET /v1/jobs/{id}/trace`` and ``repro serve-admin
flightlog``.

Crash-safety model, mirroring the queue WAL:

* one :meth:`FlightRecorder.record` = one complete line written and
  flushed under a lock, so a SIGKILL can only ever tear the *final*
  line of the active segment; replay drops unparsable lines instead of
  failing,
* rotation is atomic: when the active segment reaches
  ``max_records_per_segment`` it is ``os.replace``d onto the ``.1``
  archive (same-filesystem rename) and a fresh active segment opens --
  the recorder holds at most ``keep_segments`` files, so the journal is
  a bounded ring buffer, not an unbounded log,
* a restarted recorder replays the surviving segments into its
  in-memory ring, so traces span the crash.

Event names are deliberately few and stable (:data:`LIFECYCLE_EVENTS`);
``docs/observability.md`` tabulates them.  The recorder is serve-only
machinery -- nothing on the ``track_dense`` hot path touches it, so the
PR-3 disabled-overhead bound is unaffected.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

#: The stable lifecycle vocabulary.  ``submitted`` .. ``dead_lettered``
#: come from the queue; ``cache_hit``/``compute``/``cache_write`` from
#: the workers; ``requeued`` from the dead-letter admin surface.
LIFECYCLE_EVENTS = (
    "submitted",
    "claimed",
    "lease_renewed",
    "retry_scheduled",
    "reaped",
    "dead_lettered",
    "completed",
    "cache_hit",
    "compute",
    "cache_write",
    "requeued",
)


class FlightRecorder:
    """Bounded, crash-safe JSONL journal of job-lifecycle events.

    ``path`` is the active segment (conventionally
    ``flight-<node>.jsonl`` inside the serve state directory); rotated segments live alongside
    as ``<path>.1``, ``<path>.2``, ... up to ``keep_segments - 1``
    archives.  All methods are thread-safe.
    """

    def __init__(
        self,
        path: str,
        max_records_per_segment: int = 4096,
        keep_segments: int = 2,
        node: str | None = None,
    ) -> None:
        if max_records_per_segment < 1:
            raise ValueError("max_records_per_segment must be >= 1")
        if keep_segments < 1:
            raise ValueError("keep_segments must be >= 1")
        self.path = path
        self.max_records_per_segment = max_records_per_segment
        self.keep_segments = keep_segments
        #: Fleet identity stamped on every record (with a per-recorder
        #: monotonic ``seq``) so journals from many nodes merge into one
        #: stable chronology -- ties on ``ts`` break on (node, seq).
        self.node = node
        self._lock = threading.Lock()
        self._handle = None
        self._active_records = 0
        self._seq = 0
        #: In-memory ring mirroring the on-disk segments, for cheap
        #: per-job queries without re-reading files on every request.
        self._ring: deque[dict] = deque(
            maxlen=max_records_per_segment * keep_segments
        )
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        for event in self._replay_from_disk():
            self._ring.append(event)
            self._seq = max(self._seq, int(event.get("seq", 0)))
        self._active_records = self._count_active_records()

    # -- writing ----------------------------------------------------------------------

    def record(
        self,
        event: str,
        job_id: str,
        trace_id: str | None = None,
        attempt: int | None = None,
        worker: str | None = None,
        ts: float | None = None,
        **fields,
    ) -> dict:
        """Append one lifecycle event; returns the record written.

        The write is one flushed line -- by the time this returns the
        event is in the OS page cache, which survives process SIGKILL
        (the same durability the queue WAL provides).
        """
        record = {"ts": time.time() if ts is None else ts, "event": event, "job": job_id}
        if trace_id:
            record["trace"] = trace_id
        if attempt is not None:
            record["attempt"] = attempt
        if worker:
            record["worker"] = worker
        if fields:
            record["fields"] = fields
        with self._lock:
            if self.node is not None:
                self._seq += 1
                record["node"] = self.node
                record["seq"] = self._seq
            line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
            self._handle.write(line)
            self._handle.flush()
            self._active_records += 1
            self._ring.append(record)
            if self._active_records >= self.max_records_per_segment:
                self._rotate_locked()
        return record

    def _rotate_locked(self) -> None:
        """Archive the active segment atomically and start a fresh one."""
        self._handle.close()
        self._handle = None
        for index in range(self.keep_segments - 1, 1, -1):
            older = f"{self.path}.{index - 1}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index}")
        if self.keep_segments > 1:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.unlink(self.path)
        self._active_records = 0

    # -- reading ----------------------------------------------------------------------

    def _segment_paths(self) -> list[str]:
        """Existing segments, oldest first (archives before active)."""
        paths = [
            f"{self.path}.{index}"
            for index in range(self.keep_segments - 1, 0, -1)
        ]
        paths.append(self.path)
        return [p for p in paths if os.path.exists(p)]

    def _replay_from_disk(self) -> list[dict]:
        events: list[dict] = []
        for path in self._segment_paths():
            with open(path, "rb") as handle:
                for line in handle.read().split(b"\n"):
                    if not line:
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        continue  # torn tail from a crash mid-write
                    if isinstance(record, dict) and "event" in record and "job" in record:
                        events.append(record)
        return events

    def _count_active_records(self) -> int:
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb") as handle:
            return sum(1 for line in handle.read().split(b"\n") if line)

    def replay(self) -> list[dict]:
        """Every surviving event, oldest first, re-read from disk.

        Tolerant of a torn final line (dropped, never fatal) -- this is
        the post-mortem entry point ``repro serve-admin flightlog``
        uses against a dead server's state directory.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            return self._replay_from_disk()

    def events(self, job_id: str | None = None) -> list[dict]:
        """In-memory view of the ring, optionally filtered to one job."""
        with self._lock:
            if job_id is None:
                return list(self._ring)
            return [e for e in self._ring if e.get("job") == job_id]

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def flight_journal_path(state_dir: str, node: str) -> str:
    """The flight-journal path convention: ``flight-<node>.jsonl``."""
    return os.path.join(state_dir, f"flight-{node}.jsonl")


def discover_flight_journals(state_dir: str) -> list[str]:
    """Every flight-journal segment in a state directory, sorted.

    Covers the per-node ``flight-<node>.jsonl`` journals, the
    ``flight.jsonl`` that servers before per-node journals wrote, and
    their rotated ``.N`` archives -- everything
    :func:`merge_flight_journals` should see.
    """
    try:
        names = sorted(os.listdir(state_dir))
    except OSError:
        return []
    paths: list[str] = []
    for name in names:
        stem = name
        while stem and stem.rpartition(".")[2].isdigit():
            stem = stem.rpartition(".")[0]
        if stem == "flight.jsonl" or (
            stem.startswith("flight-") and stem.endswith(".jsonl")
        ):
            paths.append(os.path.join(state_dir, name))
    return paths


def merge_flight_journals(paths: list[str]) -> list[dict]:
    """Chronologically interleave flight records from many journals.

    The sort key is ``(ts, node, seq)`` -- wall-clock first, then a
    stable tie-break on the writing node's identity and its per-node
    monotonic sequence number, so records that share a timestamp (or
    come from clocks with coarse resolution) merge deterministically.
    Pre-fleet records without node/seq tags sort with ``node=""`` and
    ``seq=0``.  Torn or unparsable lines are dropped, never fatal --
    this is the post-mortem path and must work on journals from
    SIGKILLed nodes.
    """
    records: list[dict] = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            continue
        for line in raw.split(b"\n"):
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # torn tail from a crash mid-write
            if isinstance(record, dict) and "event" in record and "job" in record:
                records.append(record)
    records.sort(
        key=lambda r: (
            float(r.get("ts", 0.0)),
            str(r.get("node", "")),
            int(r.get("seq", 0)),
        )
    )
    return records


def job_trace(events: list[dict], job: dict | None = None) -> dict:
    """Stitch one job's lifecycle events into a latency-decomposed trace.

    ``events`` is that job's slice of the recorder (oldest first);
    ``job`` optionally supplies the queue's bookkeeping record
    (:meth:`repro.serve.jobs.Job.to_dict`) for wall-clock cross-checks.
    Returns the trace payload served by ``GET /v1/jobs/{id}/trace``:

    * ``events`` -- the raw records,
    * ``attempts`` -- one entry per claim with its lease interval and
      how the attempt ended,
    * ``segments`` -- the wall-clock decomposition.  ``queue_wait``
      (submission -> first claim, plus every retry backoff gap between
      attempts) and ``lease_held`` (sum of claim -> attempt end) tile
      the full submitted -> finished interval exactly; ``compute`` and
      ``cache_write`` are the measured sub-intervals inside the final
      lease, with the remainder reported as ``overhead``.
    """
    submitted_ts: float | None = None
    finished_ts: float | None = None
    compute_seconds = 0.0
    cache_write_seconds = 0.0
    attempts: list[dict] = []
    open_attempt: dict | None = None

    for event in events:
        kind = event.get("event")
        ts = float(event.get("ts", 0.0))
        if kind == "submitted" and submitted_ts is None:
            submitted_ts = ts
        elif kind == "claimed":
            open_attempt = {
                "attempt": event.get("attempt"),
                "worker": event.get("worker"),
                "claimed_ts": ts,
                "ended_ts": None,
                "outcome": None,
            }
            attempts.append(open_attempt)
        elif kind in ("retry_scheduled", "reaped", "completed", "dead_lettered"):
            if open_attempt is not None and open_attempt["ended_ts"] is None:
                open_attempt["ended_ts"] = ts
                open_attempt["outcome"] = kind
            if kind in ("completed", "dead_lettered"):
                finished_ts = ts
        elif kind == "compute":
            compute_seconds += float((event.get("fields") or {}).get("seconds", 0.0))
        elif kind == "cache_write":
            cache_write_seconds += float((event.get("fields") or {}).get("seconds", 0.0))

    trace: dict = {"events": events, "attempts": attempts}
    if submitted_ts is None and job is not None:
        submitted_ts = job.get("submitted_at")
    if finished_ts is None and job is not None:
        finished_ts = job.get("finished_at")
    if submitted_ts is None or finished_ts is None:
        trace["segments"] = None  # still in flight (or pre-recorder job)
        return trace

    wall = max(0.0, finished_ts - submitted_ts)
    lease_held = sum(
        max(0.0, (a["ended_ts"] or finished_ts) - a["claimed_ts"]) for a in attempts
    )
    queue_wait = max(0.0, wall - lease_held)
    overhead = max(0.0, lease_held - compute_seconds - cache_write_seconds)
    trace["segments"] = {
        "wall_seconds": wall,
        "queue_wait_seconds": queue_wait,
        "lease_held_seconds": lease_held,
        "compute_seconds": compute_seconds,
        "cache_write_seconds": cache_write_seconds,
        "overhead_seconds": overhead,
    }
    return trace


def trace_chrome_events(job_id: str, trace: dict) -> list[dict]:
    """Convert a :func:`job_trace` payload into tracer-shaped span dicts.

    The result feeds :func:`repro.obs.export.chrome_trace` directly, so
    a per-job trace opens in Perfetto next to the span timelines the
    rest of the repo exports.  Timestamps are relative to submission.
    """
    events = trace.get("events") or []
    segments = trace.get("segments")
    submitted = min((float(e["ts"]) for e in events), default=0.0)

    def span(name: str, t0: float, t1: float, depth: int, **args) -> dict:
        return {
            "name": name,
            "ts_us": (t0 - submitted) * 1e6,
            "dur_us": max(0.0, t1 - t0) * 1e6,
            "pid": os.getpid(),
            "tid": 0,
            "depth": depth,
            "args": {"job": job_id, **args},
        }

    spans: list[dict] = []
    if segments is not None:
        spans.append(
            span("job", submitted, submitted + segments["wall_seconds"], 0,
                 **{k: round(v, 6) for k, v in segments.items()})
        )
    previous_end = submitted
    for attempt in trace.get("attempts", []):
        claimed = float(attempt["claimed_ts"])
        ended = float(attempt["ended_ts"] or claimed)
        spans.append(
            span("queue_wait", previous_end, claimed, 1, attempt=attempt["attempt"])
        )
        spans.append(
            span(
                "lease_held", claimed, ended, 1,
                attempt=attempt["attempt"], worker=attempt["worker"],
                outcome=attempt["outcome"],
            )
        )
        previous_end = ended
    for event in events:
        if event.get("event") in ("compute", "cache_write"):
            seconds = float((event.get("fields") or {}).get("seconds", 0.0))
            t1 = float(event["ts"])
            spans.append(span(event["event"], t1 - seconds, t1, 2))
    return spans
