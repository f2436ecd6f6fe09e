"""Job queue: ordering, dedup, backpressure, and durable persistence.

The persistence tests run on the durable store and mirror the stream
checkpoint bit-identity contract: a killed server restarting from the
journal must hold exactly the accepted work -- pending jobs, priorities
and dedup keys survive the round trip bit for bit.
"""

import pytest

from repro.serve.jobs import JobRequest
from repro.serve.queue import JobQueue, QueueFullError
from repro.serve.store import SharedJobStore


def _request(seed: int = 0, **kwargs) -> JobRequest:
    return JobRequest(dataset="florida", size=48, seed=seed, **kwargs)


def _store(state_dir) -> SharedJobStore:
    """One restart of node ``n`` over ``state_dir``."""
    return SharedJobStore(str(state_dir), node="n", max_depth=8)


class TestOrdering:
    def test_priority_then_fifo(self):
        q = JobQueue(max_depth=16)
        low, _ = q.submit(_request(seed=1), priority=0)
        high, _ = q.submit(_request(seed=2), priority=5)
        mid_a, _ = q.submit(_request(seed=3), priority=2)
        mid_b, _ = q.submit(_request(seed=4), priority=2)
        order = [q.claim(timeout=0).id for _ in range(4)]
        assert order == [high.id, mid_a.id, mid_b.id, low.id]

    def test_claim_times_out_when_empty(self):
        q = JobQueue(max_depth=4)
        assert q.claim(timeout=0.01) is None


class TestDedup:
    def test_pending_duplicate_dedupes(self):
        q = JobQueue(max_depth=4)
        first, created = q.submit(_request())
        dup, created_dup = q.submit(_request())
        assert created and not created_dup
        assert dup.id == first.id
        assert q.depth() == 1

    def test_running_duplicate_dedupes(self):
        q = JobQueue(max_depth=4)
        first, _ = q.submit(_request())
        claimed = q.claim(timeout=0)
        assert claimed.id == first.id
        dup, created = q.submit(_request())
        assert not created and dup.id == first.id

    def test_completed_job_does_not_dedupe(self):
        # A finished job's result lives in the content-addressed cache;
        # a re-request must flow through it as a NEW job.
        q = JobQueue(max_depth=4)
        first, _ = q.submit(_request())
        q.claim(timeout=0)
        q.complete(first.id, result_key="abc")
        again, created = q.submit(_request())
        assert created and again.id != first.id

    def test_distinct_requests_do_not_dedupe(self):
        q = JobQueue(max_depth=4)
        a, _ = q.submit(_request(seed=1))
        b, _ = q.submit(_request(seed=2))
        assert a.id != b.id


class TestBackpressure:
    def test_queue_full_raises(self):
        q = JobQueue(max_depth=2)
        q.submit(_request(seed=1))
        q.submit(_request(seed=2))
        with pytest.raises(QueueFullError) as exc:
            q.submit(_request(seed=3))
        assert exc.value.retry_after_seconds > 0

    def test_capacity_frees_as_jobs_run(self):
        q = JobQueue(max_depth=1)
        q.submit(_request(seed=1))
        q.claim(timeout=0)  # running no longer counts against depth
        job, created = q.submit(_request(seed=2))
        assert created and job.state == "pending"

    def test_failed_job_retries_then_dead_letters(self):
        """A failing job burns its bounded attempt budget through the
        retry path, then quarantines dead with the last error."""
        q = JobQueue(max_depth=2)
        job, _ = q.submit(_request())
        for attempt in range(1, q.retry_policy.max_attempts + 1):
            claimed = q.claim(timeout=1.0)
            assert claimed.id == job.id and claimed.attempts == attempt
            q.fail(job.id, "poisoned request")
        state = q.get(job.id)
        assert state.state == "dead"
        assert state.attempts == q.retry_policy.max_attempts
        assert "poisoned" in state.error

    def test_nonretryable_failure_goes_straight_to_dead(self):
        q = JobQueue(max_depth=2)
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.fail(job.id, "validation bug", retryable=False)
        assert q.get(job.id).state == "dead"
        assert q.get(job.id).attempts == 1

    def test_retry_backoff_gates_the_next_claim(self):
        q = JobQueue(max_depth=2)
        job, _ = q.submit(_request())
        q.claim(timeout=0)
        q.fail(job.id, "transient")
        assert q.get(job.id).state == "retrying"
        # Not due yet: an immediate claim must come back empty...
        assert q.claim(timeout=0) is None
        # ...but a blocking claim waits out the backoff on the condvar.
        reclaimed = q.claim(timeout=5.0)
        assert reclaimed is not None and reclaimed.id == job.id
        assert reclaimed.attempts == 2


class TestPersistence:
    def test_kill_restart_round_trip_bit_identical(self, tmp_path):
        """Pending jobs, priorities and dedup keys survive bit for bit.

        No ``save()`` here -- the restart reads only what the write-ahead
        journal captured at acceptance time, i.e. exactly what a
        SIGKILLed server would have on disk.
        """
        q = _store(tmp_path)
        q.submit(_request(seed=1), priority=3)
        q.submit(_request(seed=2), priority=0)
        running, _ = q.submit(_request(seed=3), priority=9)
        # highest priority first
        assert q.claim(timeout=0, worker="n/serve-worker-0").id == running.id
        original_state = q.to_state()
        q.dispose()

        restored = _store(tmp_path)
        after_state = restored.to_state()
        assert after_state["seq"] == original_state["seq"]
        for before_job, after_job in zip(
            original_state["jobs"], after_state["jobs"]
        ):
            assert after_job["id"] == before_job["id"]
            assert after_job["priority"] == before_job["priority"]
            assert after_job["request"] == before_job["request"]
        # The mid-run job restores pending, lease revoked, its crashed
        # attempt still counted against the retry budget.
        revived = restored.get(running.id)
        assert revived.state == "pending"
        assert revived.lease_token is None and revived.worker is None
        assert revived.attempts == 1

    def test_restart_resumes_pending_in_priority_order(self, tmp_path):
        q = _store(tmp_path)
        q.submit(_request(seed=1), priority=0)
        q.submit(_request(seed=2), priority=7)
        q.submit(_request(seed=3), priority=3)
        q.dispose()

        restarted = _store(tmp_path)
        order = [restarted.claim(timeout=0).request.seed for _ in range(3)]
        assert order == [2, 3, 1]
        assert restarted.claim(timeout=0) is None

    def test_restart_preserves_dedup_keys(self, tmp_path):
        q = _store(tmp_path)
        original, _ = q.submit(_request(seed=5))
        q.dispose()

        restarted = _store(tmp_path)
        dup, created = restarted.submit(_request(seed=5))
        assert not created and dup.id == original.id

    def test_restart_preserves_seq_counter(self, tmp_path):
        """New jobs after restart never reuse an existing job id."""
        q = _store(tmp_path)
        a, _ = q.submit(_request(seed=1))
        q.dispose()
        restarted = _store(tmp_path)
        b, _ = restarted.submit(_request(seed=2))
        assert b.id != a.id

    def test_persisted_file_is_deterministic(self, tmp_path):
        """Identical submit histories produce identical snapshot bytes
        (modulo wall-clock timestamps, which we pin)."""
        blobs = []
        for name in ("a", "b"):
            q = _store(tmp_path / name)
            for seed in (1, 2):
                job, _ = q.submit(_request(seed=seed), priority=seed)
                job.submitted_at = 0.0
            q.save()
            q.dispose()
            blobs.append((tmp_path / name / "queue.json").read_bytes())
        assert blobs[0] == blobs[1]
