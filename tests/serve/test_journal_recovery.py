"""Crash-safe journal recovery: torn writes, empty/missing state, compaction.

The acceptance property: an acknowledged job (submit returned) is never
lost, no matter where the process died.  The cruelest version is tested
exhaustively -- the write-ahead journal truncated at **every byte
offset** of its final record -- and replay must neither raise nor drop
a previously-acknowledged job.  Every case runs on the one durable
store, :class:`~repro.serve.store.SharedJobStore`, and its one replay
rule: a corrupt complete line is skipped, later records still apply.
"""

import json
import logging
import os

from repro.obs.log import get_logger
from repro.serve.jobs import JobRequest
from repro.serve.store import STATE_VERSION, QueueJournal, SharedJobStore


def _request(seed: int = 0, **kwargs) -> JobRequest:
    return JobRequest(dataset="florida", size=48, seed=seed, **kwargs)


def _store(state_dir, **kwargs) -> SharedJobStore:
    kwargs.setdefault("max_depth", 8)
    return SharedJobStore(str(state_dir), node="n", **kwargs)


class _Capture(logging.Handler):
    """The repro logger does not propagate; attach to capture events."""

    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestTornWrites:
    def test_truncation_at_every_byte_offset_never_loses_acknowledged_jobs(
        self, tmp_path
    ):
        """Kill the server mid-write, at every possible byte."""
        q = _store(tmp_path)
        acknowledged = []
        for seed in range(3):
            job, _ = q.submit(_request(seed=seed), priority=seed)
            acknowledged.append(job.id)

        wal = (tmp_path / "queue.json.wal").read_bytes()
        lines = wal.rstrip(b"\n").split(b"\n")
        last_start = len(wal) - len(lines[-1]) - 1
        for cut in range(last_start, len(wal) + 1):
            crash_dir = tmp_path / f"crash-{cut}"
            crash_dir.mkdir()
            (crash_dir / "queue.json.wal").write_bytes(wal[:cut])

            restored = _store(crash_dir)  # never raises
            jobs = {j.id for j in restored.list_jobs()}
            restored.dispose()
            if cut == len(wal):
                # Nothing torn: all three acknowledged jobs present.
                assert jobs == set(acknowledged)
            else:
                # Only the final record can be torn at these offsets, so
                # the first two acknowledged jobs must always survive --
                # and replay never invents jobs that were never accepted.
                assert set(acknowledged[:2]) <= jobs
                assert jobs <= set(acknowledged)

    def test_acknowledged_means_durable(self, tmp_path):
        """Every record the journal flushed before a cut is replayed:
        truncating only the final record loses only the final event."""
        q = _store(tmp_path)
        first, _ = q.submit(_request(seed=1))
        second, _ = q.submit(_request(seed=2))

        wal = (tmp_path / "queue.json.wal").read_bytes()
        lines = wal.rstrip(b"\n").split(b"\n")
        assert len(lines) == 2
        # Torn halfway through the second record: the first submit was
        # acknowledged strictly earlier, so it MUST survive.
        cut = len(lines[0]) + 1 + len(lines[1]) // 2
        (tmp_path / "queue.json.wal").write_bytes(wal[:cut])
        restored = _store(tmp_path)
        assert restored.get(first.id) is not None
        assert restored.get(first.id).state == "pending"

    def test_corrupt_middle_record_is_skipped(self, tmp_path):
        """A checksum-failing complete line is skipped and counted; the
        records on both sides of it still replay (a later record of the
        same job supersedes it -- the last record wins)."""
        journal = QueueJournal(str(tmp_path / "j.wal"))
        journal.append({"rev": 1, "seq": 1, "job": {"id": "a"}})
        journal.append({"rev": 2, "seq": 2, "job": {"id": "b"}})
        journal.append({"rev": 3, "seq": 3, "job": {"id": "c"}})
        journal.close()
        raw = (tmp_path / "j.wal").read_bytes()
        lines = raw.rstrip(b"\n").split(b"\n")
        garbled = lines[1].replace(b'"rev":2', b'"rev":9')  # breaks the crc
        (tmp_path / "j.wal").write_bytes(b"\n".join([lines[0], garbled, lines[2]]) + b"\n")
        records, consumed, skipped, torn = QueueJournal(str(tmp_path / "j.wal")).read()
        assert [r["rev"] for r in records] == [1, 3]
        assert skipped == 1
        assert consumed == len((tmp_path / "j.wal").read_bytes()) and torn == 0

    def test_journal_roundtrip_is_lossless(self, tmp_path):
        journal = QueueJournal(str(tmp_path / "j.wal"))
        payloads = [{"rev": i, "seq": i, "job": {"id": f"job-{i}", "n": i * 7}} for i in range(20)]
        for p in payloads:
            journal.append(p)
        journal.close()
        records, _, skipped, _ = QueueJournal(str(tmp_path / "j.wal")).read()
        assert records == payloads and skipped == 0


class TestStartClean:
    def _with_capture(self, fn):
        logger = get_logger("serve.store")
        handler = _Capture()
        logger.addHandler(handler)
        previous_level = logger.level
        logger.setLevel(logging.INFO)  # the repro root defaults to WARNING
        try:
            return fn(), handler.messages
        finally:
            logger.setLevel(previous_level)
            logger.removeHandler(handler)

    def test_missing_state_path_starts_clean_with_log_line(self, tmp_path):
        state_dir = tmp_path / "nonexistent"
        os.makedirs(state_dir)
        q, messages = self._with_capture(lambda: _store(state_dir))
        assert q.counts() == {s: 0 for s in q.counts()}
        assert any("starting_clean" in m and "missing" in m for m in messages)

    def test_empty_state_file_starts_clean_with_log_line(self, tmp_path):
        """An empty file (crash before the first byte) behaves exactly
        like a missing one -- clean start, structured log, no raise."""
        path = tmp_path / "queue.json"
        path.write_text("")
        q, messages = self._with_capture(lambda: _store(tmp_path))
        assert q.depth() == 0
        assert any("starting_clean" in m and "empty" in m for m in messages)
        # And the queue is immediately usable.
        job, created = q.submit(_request())
        assert created and q.get(job.id).state == "pending"

    def test_whitespace_only_state_file_counts_as_empty(self, tmp_path):
        path = tmp_path / "queue.json"
        path.write_text("\n  \n")
        q, messages = self._with_capture(lambda: _store(tmp_path))
        assert q.depth() == 0
        assert any("starting_clean" in m for m in messages)


class TestSnapshotsAndCompaction:
    def test_legacy_v1_snapshot_restores_with_failed_mapped_to_dead(self, tmp_path):
        """A PR-4 state file (version 1, terminal ``failed``) loads; the
        legacy state surfaces in the new dead-letter quarantine."""
        request = _request().canonical()
        legacy = {
            "version": 1,
            "seq": 2,
            "max_depth": 8,
            "jobs": [
                {
                    "id": "job-000001", "request": request, "priority": 0, "seq": 1,
                    "state": "failed", "submitted_at": 1.0, "error": "old-style failure",
                },
                {
                    "id": "job-000002", "request": {**request, "seed": 9},
                    "priority": 2, "seq": 2, "state": "pending", "submitted_at": 2.0,
                },
            ],
        }
        path = tmp_path / "queue.json"
        path.write_text(json.dumps(legacy))
        q = _store(tmp_path)
        assert q.get("job-000001").state == "dead"
        assert [j.id for j in q.list_jobs(state="dead")] == ["job-000001"]
        assert q.claim(timeout=0).id == "job-000002"

    def test_compaction_folds_the_wal_into_the_snapshot(self, tmp_path):
        path = tmp_path / "queue.json"
        q = _store(tmp_path, max_depth=64, compact_every=5)
        for seed in range(7):  # crosses the compaction threshold
            q.submit(_request(seed=seed))
        snapshot = json.loads(path.read_text())
        assert snapshot["version"] == STATE_VERSION
        assert len(snapshot["jobs"]) >= 5
        # Post-compaction WAL only holds records appended since.
        wal_lines = [
            line for line in (tmp_path / "queue.json.wal").read_bytes().split(b"\n") if line
        ]
        assert len(wal_lines) < 7
        restored = _store(tmp_path, max_depth=64)
        assert len(restored.list_jobs(state="pending")) == 7

    def test_wal_replay_last_record_wins(self, tmp_path):
        """A job's newest journal record defines its restored state."""
        q = _store(tmp_path)
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.complete(job.id, result_key="abc")
        restored = _store(tmp_path)
        assert restored.get(job.id).state == "done"
        assert restored.get(job.id).result_key == "abc"

    def test_restart_restores_retrying_and_dead_states(self, tmp_path):
        q = _store(tmp_path)
        retrying, _ = q.submit(_request(seed=1))
        q.claim(timeout=0)
        q.fail(retrying.id, "transient")
        dead, _ = q.submit(_request(seed=2))
        q.claim(timeout=5.0)  # claims the dead-to-be job (retrying is backing off)
        q.fail(dead.id, "fatal", retryable=False)

        restored = _store(tmp_path)
        assert restored.get(retrying.id).state == "retrying"
        assert restored.get(retrying.id).attempts == 1
        assert restored.get(dead.id).state == "dead"
        # The retrying job is schedulable (its backoff long expired by
        # restart in the worst case; here claim just waits it out).
        reclaimed = restored.claim(timeout=5.0)
        assert reclaimed.id == retrying.id and reclaimed.attempts == 2
