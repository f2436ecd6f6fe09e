"""SharedJobStore: one durable queue shared by many node processes.

Each test opens two (or more) store instances over the same state
directory -- the in-process stand-in for two ``repro serve-worker``
nodes on a shared filesystem -- and checks the fleet contract:

* a mutation on node A is visible on node B before B acts (WAL
  replication via byte cursors under the fleet flock),
* dedup fingerprints and job ids are authoritative fleet-wide,
* compaction on one node does not lose records for the others
  (generation bump forces a snapshot reload),
* ``close()`` is process-local -- a draining node never stops the
  fleet -- and a dead node's leases are reaped by a survivor.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.serve.jobs import JobRequest
from repro.serve.queue import QueueFullError
from repro.serve.store import NodeRegistry, SharedJobStore, default_node_id


def _request(seed: int = 0, **kwargs) -> JobRequest:
    return JobRequest(dataset="florida", size=48, seed=seed, **kwargs)


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


def _store(state_dir, node, **kwargs):
    kwargs.setdefault("max_depth", 16)
    kwargs.setdefault("poll_seconds", 0.01)
    return SharedJobStore(state_dir, node=node, **kwargs)


class TestCrossProcessVisibility:
    def test_submit_on_a_visible_on_b(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, created = a.submit(_request(seed=1))
        assert created
        seen = b.get(job.id)
        assert seen is not None and seen.state == "pending"
        assert b.depth() == 1

    def test_claim_on_b_visible_on_a(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/serve-worker-0")
        assert claimed is not None and claimed.id == job.id
        mirrored = a.get(job.id)
        assert mirrored.state == "running"
        assert mirrored.worker == "b/serve-worker-0"
        assert a.running_by_node() == {"b": 1}

    def test_completion_on_b_terminal_on_a(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token, result_key="abc")
        assert a.get(job.id).state == "done"
        assert a.counts()["done"] == 1

    def test_terminal_callback_fires_for_remote_transitions(self, state_dir):
        terminal = []
        a = _store(state_dir, "a")
        a.on_terminal = lambda job: terminal.append(job.id)
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token, result_key="k")
        a.get(job.id)  # any synced read folds in the remote record
        assert terminal == [job.id]


class TestFleetDedupAndIds:
    def test_duplicate_across_nodes_dedupes(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        first, created_a = a.submit(_request(seed=7))
        dup, created_b = b.submit(_request(seed=7))
        assert created_a and not created_b
        assert dup.id == first.id
        assert a.depth() == b.depth() == 1

    def test_job_ids_unique_across_interleaved_submits(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        ids = []
        for seed in range(8):
            node = a if seed % 2 == 0 else b
            job, created = node.submit(_request(seed=seed))
            assert created
            ids.append(job.id)
        assert len(set(ids)) == 8

    def test_priority_order_holds_across_nodes(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        low, _ = a.submit(_request(seed=1), priority=0)
        high, _ = b.submit(_request(seed=2), priority=9)
        mid, _ = a.submit(_request(seed=3), priority=4)
        order = [b.claim(timeout=1.0, worker="b/w").id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_backpressure_counts_fleet_wide_depth(self, state_dir):
        a = _store(state_dir, "a", max_depth=2)
        b = _store(state_dir, "b", max_depth=2)
        a.submit(_request(seed=1))
        b.submit(_request(seed=2))
        with pytest.raises(QueueFullError):
            a.submit(_request(seed=3))


class TestCompactionGenerations:
    def test_compaction_on_a_does_not_lose_records_for_b(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        jobs = [a.submit(_request(seed=s))[0] for s in range(4)]
        b.depth()  # B's cursor now points into the pre-compaction WAL
        a.save()  # compacts: truncates the WAL, bumps queue.gen
        # B must detect the generation bump and reload the snapshot --
        # and then still see a post-compaction submit from A.
        late, _ = a.submit(_request(seed=99))
        assert b.depth() == 5
        for job in [*jobs, late]:
            assert b.get(job.id) is not None

    def test_generation_file_written_on_compaction(self, state_dir):
        a = _store(state_dir, "a")
        a.submit(_request(seed=1))
        a.save()
        gen = (tmp := os.path.join(state_dir, "queue.gen"))
        assert os.path.exists(gen)
        assert int(open(tmp).read()) >= 0

    def test_fresh_node_joins_after_compaction(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        a.save()
        c = _store(state_dir, "c")
        assert c.get(job.id).state == "pending"
        dup, created = c.submit(_request(seed=1))
        assert not created and dup.id == job.id


class TestTornTails:
    def test_torn_tail_is_skipped_then_terminated(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        wal = os.path.join(state_dir, "queue.json.wal")
        with open(wal, "ab") as handle:  # crashed writer: no newline
            handle.write(b'{"torn": tr')
        b = _store(state_dir, "b")
        assert b.get(job.id) is not None  # tail never corrupts replay
        # The next writer terminates the stump; its record still lands.
        late, _ = b.submit(_request(seed=2))
        assert a.get(late.id) is not None

    def test_corrupt_complete_line_is_skipped_not_fatal(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        wal = os.path.join(state_dir, "queue.json.wal")
        with open(wal, "ab") as handle:
            handle.write(b'{"crc": "0000", "r": {"rev": 1, "job": {}}}\n')
        b = _store(state_dir, "b")
        assert b.get(job.id).state == "pending"


class TestProcessLocalClose:
    def test_close_does_not_stop_the_fleet(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        a.submit(_request(seed=1))
        a.close()
        assert a.claim(timeout=0.05) is None  # this node stopped claiming
        job, created = b.submit(_request(seed=2))  # fleet still admits
        assert created
        assert b.claim(timeout=1.0, worker="b/w") is not None

    def test_dispose_releases_handles_without_touching_state(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        a.dispose()
        b = _store(state_dir, "b")
        assert b.get(job.id).state == "pending"


class TestCrossNodeReaping:
    def test_survivor_reaps_dead_nodes_lease(self, state_dir):
        a = _store(state_dir, "a", lease_seconds=0.1)
        b = _store(state_dir, "b", lease_seconds=0.1)
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=1.0, worker="a/serve-worker-0")
        assert claimed.id == job.id
        # Node A "dies" (never renews).  B's reaper requeues the job
        # once the lease expires -- lease expiry, not process liveness,
        # is the fleet-wide truth about worker death.
        reaped = b.reap(now=claimed.lease_deadline + 1.0)
        assert [j.id for j in reaped] == [job.id]
        assert b.get(job.id).state in ("pending", "retrying")
        # A's zombie completion is dropped on the stale token.
        assert a.complete(job.id, lease_token=claimed.lease_token) is None
        retaken = b.claim(timeout=2.0, worker="b/serve-worker-0")
        assert retaken.id == job.id and retaken.attempts == 2

    def test_reload_does_not_revoke_live_leases(self, state_dir):
        a = _store(state_dir, "a")
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=1.0, worker="a/w")
        c = _store(state_dir, "c")  # a node (re)joining the fleet
        mirrored = c.get(job.id)
        assert mirrored.state == "running"
        assert mirrored.lease_token == claimed.lease_token

    def test_wait_idle_sees_fleet_wide_activity(self, state_dir):
        a = _store(state_dir, "a")
        b = _store(state_dir, "b")
        job, _ = a.submit(_request(seed=1))
        assert not b.wait_idle(timeout=0.05)
        claimed = b.claim(timeout=1.0, worker="b/w")
        b.complete(job.id, lease_token=claimed.lease_token)
        assert a.wait_idle(timeout=1.0)


class TestNodeRegistry:
    def test_heartbeat_roster_round_trip(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("node-0", workers=2, in_flight=1)
        registry.heartbeat("node-1", workers=4, in_flight=0)
        roster = registry.nodes()
        assert set(roster) == {"node-0", "node-1"}
        assert roster["node-0"]["workers"] == 2
        assert roster["node-1"]["age_seconds"] >= 0.0

    def test_remove_retires_a_node(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("node-0")
        registry.remove("node-0")
        assert registry.nodes() == {}
        registry.remove("node-0")  # idempotent

    def test_corrupt_heartbeat_is_skipped(self, state_dir):
        registry = NodeRegistry(state_dir)
        registry.heartbeat("good")
        with open(registry.path_for("bad"), "w") as handle:
            handle.write("{mid-write")
        assert set(registry.nodes()) == {"good"}

    def test_default_node_id_is_host_qualified(self):
        """The hostname: stable across restarts, so a restarted node
        can recognise (and revoke) the leases of its previous run."""
        node = default_node_id()
        assert node == socket.gethostname() == default_node_id()


class TestSingleProcessCompatibility:
    def test_snapshot_is_plain_versioned_json(self, state_dir):
        a = _store(state_dir, "a")
        a.submit(_request(seed=1))
        a.save()
        payload = json.load(open(os.path.join(state_dir, "queue.json")))
        assert payload["version"] in (1, 2)
        assert len(payload["jobs"]) == 1


class TestRestart:
    """A restarted node revokes its previous run's leases at once; other
    nodes' leases wait for expiry.  In-process, no sleeps."""

    def _crashed_claim(self, state_dir):
        a = _store(state_dir, "n")
        job, _ = a.submit(_request(seed=1))
        claimed = a.claim(timeout=0, worker="n/serve-worker-0")
        assert claimed.id == job.id
        a.dispose()  # the process dies holding the lease
        return claimed

    def test_same_node_revokes_its_own_lease_on_load(self, state_dir):
        claimed = self._crashed_claim(state_dir)
        restarted = _store(state_dir, "n")
        job = restarted.get(claimed.id)
        assert job.state == "pending"
        assert job.attempts == 1
        assert job.lease_token is None and job.worker is None
        # The revocation is journaled: every other node sees it too.
        assert _store(state_dir, "m").get(claimed.id).state == "pending"
        # And the job is claimable at once, not after lease_seconds.
        retaken = restarted.claim(timeout=0, worker="n/serve-worker-0")
        assert retaken.id == claimed.id and retaken.attempts == 2

    def test_other_node_leaves_the_lease_to_expiry(self, state_dir):
        claimed = self._crashed_claim(state_dir)
        other = _store(state_dir, "m")
        job = other.get(claimed.id)
        assert job.state == "running"
        assert job.lease_token == claimed.lease_token

    def test_local_submit_wakes_a_blocked_claim_at_once(self, state_dir):
        store = _store(state_dir, "n", poll_seconds=30.0)
        attempted = threading.Event()
        try_claim = store._try_claim_locked

        def spy(worker):
            attempted.set()
            return try_claim(worker)

        store._try_claim_locked = spy
        claimed = []
        claimer = threading.Thread(
            target=lambda: claimed.append(
                (store.claim(timeout=20.0, worker="n/w"), time.monotonic())
            )
        )
        claimer.start()
        assert attempted.wait(timeout=5.0)
        submitted_at = time.monotonic()
        job, _ = store.submit(_request(seed=1))
        claimer.join(timeout=5.0)
        assert not claimer.is_alive()
        got, returned_at = claimed[0]
        assert got is not None and got.id == job.id
        assert returned_at - submitted_at < 1.0
