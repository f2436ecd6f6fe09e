"""The durable job store: one journal-backed queue shared by every node.

Every server is a fleet of one or more nodes over one state directory.
Each process -- ``repro serve``, ``repro serve-worker`` nodes, the
``serve-admin`` console -- holds a :class:`SharedJobStore` over the
same directory, on one machine or on several sharing a filesystem, and
they coordinate through these files:

* ``queue.json``      -- the compaction snapshot,
* ``queue.json.wal``  -- the shared write-ahead journal.  Every
  mutation appends one checksummed record *while holding the fleet
  lock*; every operation first replays the records other nodes wrote
  since its last look (a byte cursor into the WAL), so each process's
  in-memory view converges on the shared truth before it acts,
* ``queue.lock``      -- an ``flock`` advisory lock serializing
  mutations fleet-wide, and ``queue.gen`` -- a generation counter
  bumped on every compaction so a node whose WAL cursor was
  invalidated by another node's compaction reloads from the snapshot
  instead of silently missing records.

**Leases.** A lease granted on node A is visible to node B, so *any*
node's reaper can requeue work a dead node stranded, and A's zombie
completion is dropped on the stale-token check.  A loading store
revokes at once the leases held by its own node's workers (worker ids
``<node>/...``): they belong to the node's previous run, which is gone,
so a restarted server re-runs its jobs without waiting out
``lease_seconds``.  Other nodes' leases are left to lease expiry, the
fleet-wide truth about worker death.  Node ids are therefore stable
across restarts and distinct between live nodes.

**Claims.** Cross-process claims cannot ride a condition variable, so
:meth:`SharedJobStore.claim` makes one attempt under the fleet lock and
then waits at most ``poll_seconds`` on the local condition variable.
The wait begins under the same hold as the failed attempt, so a local
submit wakes it at once.  ``close()`` stays process-local -- a node
draining for restart must not stop the rest of the fleet from
accepting work.

**One torn-journal rule** (:meth:`QueueJournal.read`).  Readers only
consume newline-terminated lines.  A complete line that fails to parse
or checksum is counted and skipped, and later records still apply; the
last record of a job wins, so a later record supersedes a skipped one.
A writer SIGKILLed mid-append leaves a line without a newline, and the
next writer would otherwise glue its record onto the stump, so a writer
that observed a torn tail terminates it with a bare newline before
appending.  That sacrifices exactly the torn record, which was never
acknowledged to any client.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import logging
import os
import socket
import time

try:  # pragma: no cover - exercised implicitly on every POSIX test run
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..ioutil import atomic_write_text
from ..obs.log import get_logger, log_event
from ..obs.metrics import METRICS
from .jobs import ACTIVE_STATES, Job
from .queue import JobQueue

_LOG = get_logger("serve.store")

#: On-disk schema version of the snapshot.  Version 1 (full-state
#: rewrites without a journal) is still loadable.
STATE_VERSION = 2

#: Default bounded wait between cross-process claim attempts.
DEFAULT_POLL_SECONDS = 0.05


def default_node_id() -> str:
    """The default node identity: the hostname, stable across restarts.

    Two nodes on one host that share a state dir need distinct ids.
    """
    return socket.gethostname()


def _encode_record(record: dict) -> bytes:
    """One self-checksummed JSONL journal line (newline terminated)."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = hashlib.blake2b(body.encode(), digest_size=8).hexdigest()
    line = json.dumps({"crc": crc, "r": record}, sort_keys=True, separators=(",", ":"))
    return line.encode() + b"\n"


def _decode_record(line: bytes) -> dict | None:
    """Parse + verify one journal line; None for torn/corrupt data."""
    try:
        wrapper = json.loads(line.decode("utf-8"))
        record = wrapper["r"]
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if hashlib.blake2b(body.encode(), digest_size=8).hexdigest() != wrapper["crc"]:
            return None
        if "rev" not in record or "job" not in record:
            return None
        return record
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


class QueueJournal:
    """The queue's write-ahead log: one checksummed JSONL record a line.

    Each append is a single write of one complete line, flushed before
    the caller acknowledges the mutation.  :meth:`read` is the only
    reader of the log.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self.records_since_compact = 0

    def _write(self, data: bytes) -> int:
        if self._handle is None:
            self._handle = open(self.path, "ab")  # noqa: SIM115 -- long-lived WAL
        self._handle.write(data)
        self._handle.flush()
        return len(data)

    def append(self, record: dict) -> int:
        """Append one record; returns the bytes written (for WAL cursors)."""
        self.records_since_compact += 1
        return self._write(_encode_record(record))

    def terminate_torn_tail(self) -> int:
        """End a torn tail left by a crashed writer with a bare newline."""
        return self._write(b"\n")

    def read(self, offset: int = 0) -> tuple[list[dict], int, int, int]:
        """``(records, bytes consumed, lines skipped, torn bytes)`` from
        byte ``offset`` on.

        Only newline-terminated lines are consumed; the torn bytes after
        the last newline are left for a later read.  A complete line
        that fails to parse or checksum is skipped and counted, and the
        records after it are still returned.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                raw = handle.read()
        except FileNotFoundError:
            return [], 0, 0, 0
        consumed = raw.rfind(b"\n") + 1
        records: list[dict] = []
        skipped = 0
        for line in raw[:consumed].split(b"\n"):
            if not line:
                continue
            record = _decode_record(line)
            if record is None:
                skipped += 1
            else:
                records.append(record)
        return records, consumed, skipped, len(raw) - consumed

    def reset(self) -> None:
        """Truncate after a compaction snapshot has superseded the log."""
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.path, "wb")  # noqa: SIM115 -- long-lived WAL
        self.records_since_compact = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SharedJobStore(JobQueue):
    """The durable :class:`JobQueue`, shared by every node of a fleet.

    Same submit/claim/renew/complete/fail/reap surface, same dedup,
    backpressure, retry and dead-letter semantics -- but every instance
    over the same ``state_dir`` observes every other instance's
    mutations, and job ids / dedup fingerprints are unique and
    authoritative fleet-wide.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        node: str | None = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        compact_every: int = 512,
        **queue_kwargs,
    ) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            raise RuntimeError("the serve job store needs POSIX flock")
        super().__init__(**queue_kwargs)
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.state_path = os.path.join(state_dir, "queue.json")
        self.node = node or default_node_id()
        self.poll_seconds = poll_seconds
        self.compact_every = max(1, compact_every)
        self._journal = QueueJournal(self.state_path + ".wal")
        self._gen_path = os.path.join(state_dir, "queue.gen")
        self._lock_file = open(  # noqa: SIM115 -- lifetime = store
            os.path.join(state_dir, "queue.lock"), "a+b"
        )
        self._rev = 0
        #: Byte cursor into the shared WAL: everything before it is
        #: already applied to this process's in-memory view.
        self._wal_offset = 0
        #: Compaction generation this process last synced against.
        self._generation = -1
        #: Bytes of a torn (newline-less) record a crashed writer left at
        #: the end of the WAL; terminated before our next append.
        self._torn_bytes = 0
        self._load()

    # -- fleet lock + sync ------------------------------------------------------------

    @contextlib.contextmanager
    def _fleet(self):
        """Take the in-process lock, then the fleet flock, then converge
        on the shared state.  Everything inside acts on fresh truth."""
        with self._cond:
            fcntl.flock(self._lock_file, fcntl.LOCK_EX)
            try:
                self._sync_locked()
                yield
            finally:
                fcntl.flock(self._lock_file, fcntl.LOCK_UN)

    def _load(self) -> None:
        """Initial load: snapshot + full WAL, then revoke the leases this
        node's previous run held.  Writes nothing unless it revokes.

        ``on_terminal`` deliberately does not fire for history -- the
        SLO window should reflect the live fleet, not the archive.
        """
        on_terminal, self.on_terminal = self.on_terminal, None
        try:
            with self._fleet():
                self._revoke_own_leases_locked()
                self._publish_gauges()
        finally:
            self.on_terminal = on_terminal
        METRICS.inc("serve.queue.restored_jobs", float(len(self._jobs)))

    def _revoke_own_leases_locked(self) -> None:
        prefix = f"{self.node}/"
        revoked = []
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state == "running" and (job.worker or "").startswith(prefix):
                job.revoke_lease()
                heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
                self._append(job)
                revoked.append(job.id)
        if revoked:
            log_event(
                _LOG, logging.WARNING, "serve.store.leases_revoked_on_restart",
                node=self.node, jobs=revoked,
            )

    def _read_generation(self) -> int:
        try:
            with open(self._gen_path, encoding="utf-8") as handle:
                return int(handle.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _sync_locked(self) -> None:
        """Apply every record other nodes journaled since our last look."""
        generation = self._read_generation()
        try:
            wal_size = os.path.getsize(self._journal.path)
        except OSError:
            wal_size = 0
        if generation != self._generation or wal_size < self._wal_offset:
            # Another node compacted (or the WAL shrank underneath us):
            # our cursor is meaningless.  Reload snapshot + full WAL.
            self._load_snapshot_locked()
            self._generation = generation
            self._wal_offset = self._torn_bytes = 0
        if wal_size <= self._wal_offset:
            return
        records, consumed, skipped, self._torn_bytes = self._journal.read(
            self._wal_offset
        )
        self._wal_offset += consumed
        for record in records:
            self._apply_record_locked(record)
        if skipped:
            METRICS.inc("serve.store.skipped_records", float(skipped))
            log_event(
                _LOG, logging.WARNING, "serve.store.records_skipped",
                path=self._journal.path, skipped=skipped, applied=len(records),
            )
        if records:
            METRICS.inc("serve.store.synced_records", float(len(records)))
            self._publish_gauges()
            self._cond.notify_all()

    def _apply_record_locked(self, record: dict) -> None:
        """Fold one remote mutation into the local view (last wins)."""
        job = Job.from_dict(record["job"])
        old = self._jobs.get(job.id)
        self._jobs[job.id] = job
        self._seq = max(self._seq, int(record.get("seq", 0)), job.seq)
        self._rev = max(self._rev, int(record.get("rev", 0)))
        fingerprint = job.request.fingerprint()
        if job.state in ACTIVE_STATES:
            self._active_by_fingerprint[fingerprint] = job.id
        elif self._active_by_fingerprint.get(fingerprint) == job.id:
            del self._active_by_fingerprint[fingerprint]
        if job.state in ("pending", "retrying"):
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        if (
            job.state in ("done", "dead")
            and (old is None or old.state not in ("done", "dead"))
        ):
            if job.finished_at is not None:
                self._finished_at.append(job.finished_at)
            if self.on_terminal is not None:
                self.on_terminal(job)

    def _load_snapshot_locked(self) -> None:
        """Replace the in-memory view with the snapshot; a missing or
        empty snapshot is a clean start, logged once here."""
        self._jobs.clear()
        self._heap.clear()
        self._active_by_fingerprint.clear()
        path = self.state_path
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        if not text.strip():
            log_event(
                _LOG, logging.INFO, "serve.store.starting_clean", path=path,
                reason="state file empty" if text else "state file missing",
            )
            return
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            log_event(
                _LOG, logging.WARNING, "serve.store.snapshot_unreadable", path=path
            )
            return
        if payload.get("version") not in (1, STATE_VERSION):
            raise ValueError(
                f"unsupported queue state version {payload.get('version')!r}"
            )
        self._seq = max(self._seq, int(payload.get("seq", 0)))
        for record in payload.get("jobs", []):
            job = Job.from_dict(record)
            self._jobs[job.id] = job
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state in ("pending", "retrying"):
                heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            if job.state in ACTIVE_STATES:
                self._active_by_fingerprint[job.request.fingerprint()] = job.id

    # -- persistence ------------------------------------------------------------------

    def _append(self, job: Job) -> None:
        # Called with both locks held.  One flushed line per accepting
        # mutation; our own record is already in memory, so the cursor
        # moves past it and it is never re-applied.
        if self._torn_bytes:
            self._wal_offset += self._torn_bytes + self._journal.terminate_torn_tail()
            self._torn_bytes = 0
            METRICS.inc("serve.store.torn_tails_terminated")
        self._rev += 1
        self._wal_offset += self._journal.append(
            {"rev": self._rev, "seq": self._seq, "node": self.node, "job": job.to_dict()}
        )
        METRICS.inc("serve.journal.records")
        if self._journal.records_since_compact >= self.compact_every:
            self._compact_locked()

    def _state_locked(self) -> dict:
        return {
            "version": STATE_VERSION,
            "seq": self._seq,
            "max_depth": self.max_depth,
            "jobs": [self._jobs[job_id].to_dict() for job_id in sorted(self._jobs)],
        }

    def _compact_locked(self) -> None:
        atomic_write_text(
            self.state_path, json.dumps(self._state_locked(), sort_keys=True)
        )
        self._journal.reset()
        self._generation += 1
        atomic_write_text(self._gen_path, str(self._generation))
        self._wal_offset = 0
        self._torn_bytes = 0
        METRICS.inc("serve.journal.compactions")

    def save(self) -> None:
        """Fold the WAL into a fresh snapshot."""
        with self._fleet():
            self._compact_locked()

    def to_state(self) -> dict:
        """JSON-ready queue state (deterministic for identical histories)."""
        with self._fleet():
            return self._state_locked()

    # -- mutation surface (fleet-locked) ----------------------------------------------

    def submit(self, request, priority: int = 0):
        with self._fleet():
            return super().submit(request, priority=priority)

    def claim(self, timeout: float | None = None, worker: str | None = None):
        """Claim the highest-priority due job anywhere in the fleet.

        ``worker`` should be the node-qualified identity
        (``<node>/worker-N``) so reaping, restart revocation and flight
        events attribute correctly across the fleet.  Between attempts
        the claimer waits on the local condition variable, entered
        under the same hold as the failed attempt, so a local submit,
        completion or close wakes it at once and other nodes' submits
        are seen within ``poll_seconds``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                with self._fleet():
                    if self._closed:
                        return None
                    job, next_due = self._try_claim_locked(worker)
                if job is not None:
                    return job
                wait = self.poll_seconds
                if next_due is not None:
                    wait = min(wait, max(0.0, next_due - time.time()) + 1e-3)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = min(wait, remaining)
                self._cond.wait(wait)

    def renew(self, job_id: str, lease_token: str, extend: float | None = None) -> bool:
        with self._fleet():
            return super().renew(job_id, lease_token, extend=extend)

    def complete(self, job_id: str, lease_token: str | None = None, **fields):
        with self._fleet():
            return super().complete(job_id, lease_token=lease_token, **fields)

    def fail(self, job_id, error, lease_token=None, retryable=True):
        with self._fleet():
            return super().fail(
                job_id, error, lease_token=lease_token, retryable=retryable
            )

    def reap(self, now: float | None = None):
        with self._fleet():
            return super().reap(now=now)

    def requeue(self, job_id: str):
        with self._fleet():
            return super().requeue(job_id)

    # -- read surface (synced for freshness) ------------------------------------------

    def get(self, job_id: str):
        with self._fleet():
            return self._jobs.get(job_id)

    def list_jobs(self, state: str | None = None, limit: int = 500):
        with self._fleet():
            pass
        return super().list_jobs(state=state, limit=limit)

    def depth(self) -> int:
        with self._fleet():
            return self._depth_locked()

    def in_flight(self) -> int:
        with self._fleet():
            return sum(1 for j in self._jobs.values() if j.state == "running")

    def outstanding(self) -> int:
        with self._fleet():
            return sum(1 for j in self._jobs.values() if j.state in ACTIVE_STATES)

    def counts(self) -> dict[str, int]:
        with self._fleet():
            pass
        return super().counts()

    def queued_priorities(self) -> list[int]:
        with self._fleet():
            pass
        return super().queued_priorities()

    def retry_after_hint(self) -> float:
        with self._fleet():
            return self._retry_after_locked()

    def running_by_node(self) -> dict[str, int]:
        """Running-job counts grouped by the claiming node (the worker
        identity's ``<node>/`` prefix) -- the per-node breakdown behind
        ``serve.node.*`` gauges."""
        with self._fleet():
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                if job.state != "running":
                    continue
                node = (job.worker or "?").split("/", 1)[0]
                counts[node] = counts.get(node, 0) + 1
            return counts

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Wait until no job is pending/running/retrying fleet-wide;
        local transitions wake the wait, remote ones are polled."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                with self._fleet():
                    if not any(
                        j.state in ACTIVE_STATES for j in self._jobs.values()
                    ):
                        return True
                wait = self.poll_seconds
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._cond.wait(wait)

    def dispose(self) -> None:
        """Release file handles (does not touch shared state)."""
        self._journal.close()
        with contextlib.suppress(OSError):
            self._lock_file.close()


class NodeRegistry:
    """Heartbeat files under ``<state_dir>/nodes/`` -- fleet membership.

    Each node (workers and frontends alike) periodically writes one
    atomic JSON heartbeat; readers get the roster with per-node ages.
    Registration is advisory observability -- job correctness never
    depends on it (leases carry that) -- so a stale file from a
    SIGKILLed node is surfaced as a large ``age_seconds``, not an
    error, until its node id is reused or an operator removes it.
    """

    def __init__(self, state_dir: str) -> None:
        self.root = os.path.join(state_dir, "nodes")
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, node: str) -> str:
        return os.path.join(self.root, f"{node}.json")

    def heartbeat(self, node: str, **payload) -> None:
        record = {"node": node, "ts": time.time(), "pid": os.getpid(), **payload}
        atomic_write_text(
            self.path_for(node), json.dumps(record, sort_keys=True)
        )

    def nodes(self, now: float | None = None) -> dict[str, dict]:
        """node id -> last heartbeat payload + ``age_seconds``."""
        now = time.time() if now is None else now
        roster: dict[str, dict] = {}
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return roster
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name), encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # mid-write or vanished; next scrape sees it
            node = str(payload.get("node", name[: -len(".json")]))
            payload["age_seconds"] = max(0.0, now - float(payload.get("ts", now)))
            roster[node] = payload
        return roster

    def remove(self, node: str) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self.path_for(node))
