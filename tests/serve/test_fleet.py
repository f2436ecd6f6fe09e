"""Multi-node fleet acceptance: cross-node dedup and rolling restarts.

Two kinds of fleet here:

* **In-process** -- two :class:`ServeApp` instances with distinct nodes
  over one state directory (the cheapest faithful model of two nodes: every
  coordination path -- flock, WAL replication, shared cache -- is the
  real cross-process machinery, only the process boundary is elided).
  Used for the dedup contract: the same job submitted to two nodes
  concurrently computes **once** fleet-wide and both frontends serve
  byte-identical artifacts.

* **Subprocess** -- real ``repro serve-worker`` nodes SIGKILLed
  mid-job under sustained submissions.  The rolling-restart contract:
  zero acknowledged jobs lost, the dead node's leases reaped by a
  survivor, every job finishes ``done``.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.obs.events import discover_flight_journals, merge_flight_journals
from repro.serve.http import ServeApp, route

SIZE = 48
DEADLINE = 120.0
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fleet_app(state_dir, node, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_depth", 16)
    return ServeApp(str(state_dir), node=node, **kwargs)


def _wait_done(app, job_id, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        job = app.queue.get(job_id)
        if job is not None and job.state in ("done", "dead"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def _ge_solves(app):
    with app._ledger_lock:
        return app.ledger.gaussian_eliminations()


class TestCrossNodeDedup:
    @pytest.fixture
    def fleet(self, tmp_path):
        state = tmp_path / "state"
        a = _fleet_app(state, "node-a").start()
        b = _fleet_app(state, "node-b").start()
        try:
            yield a, b
        finally:
            b.stop_node()
            a.drain(timeout=DEADLINE)
            a.queue.dispose()
            b.queue.dispose()

    def test_concurrent_duplicate_computes_once_fleet_wide(self, fleet):
        a, b = fleet
        payload = {"dataset": "florida", "size": SIZE}
        a.pool.pause()
        b.pool.pause()
        results = {}

        def submit(name, app):
            results[name] = app.submit_payload(dict(payload))

        threads = [
            threading.Thread(target=submit, args=("a", a)),
            threading.Thread(target=submit, args=("b", b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        job_a, created_a = results["a"]
        job_b, created_b = results["b"]
        # Exactly one admission fleet-wide; the other deduplicated onto it.
        assert job_a.id == job_b.id
        assert sorted([created_a, created_b]) == [False, True]

        a.pool.resume()
        b.pool.resume()
        done = _wait_done(a, job_a.id)
        assert done.state == "done"
        # Exactly one GE solve fleet-wide: one node computed, the other
        # never touched the job.
        solves = [_ge_solves(a), _ge_solves(b)]
        assert sorted(s > 0 for s in solves) == [False, True]

    def test_both_frontends_serve_byte_identical_artifacts(self, fleet):
        a, b = fleet
        job, _ = a.submit_payload({"dataset": "florida", "size": SIZE, "seed": 3})
        _wait_done(a, job.id)
        field_path = f"/v1/products/{job.id}/field"
        status_a, bytes_a, type_a, _ = route(a, "GET", field_path)
        status_b, bytes_b, type_b, _ = route(b, "GET", field_path)
        assert status_a == status_b == 200
        assert bytes_a == bytes_b  # one artifact, two frontends, same bytes
        assert type_a == type_b
        # The JSON product views agree too.
        _, product_a, _, _ = route(a, "GET", f"/v1/products/{job.id}")
        _, product_b, _, _ = route(b, "GET", f"/v1/products/{job.id}")
        assert product_a == product_b

    def test_resubmission_is_cache_hit_on_either_node(self, fleet):
        a, b = fleet
        payload = {"dataset": "florida", "size": SIZE, "seed": 5}
        first, _ = a.submit_payload(dict(payload))
        _wait_done(a, first.id)
        solves_before = (_ge_solves(a), _ge_solves(b))
        # Re-request on the OTHER node: fleet cache, no second solve.
        again, created = b.submit_payload(dict(payload))
        assert created and again.id != first.id
        done = _wait_done(b, again.id)
        assert done.state == "done" and done.cache_hit is True
        assert (_ge_solves(a), _ge_solves(b)) == solves_before

    def test_fleet_payload_reports_both_nodes(self, fleet):
        a, b = fleet
        fleet_view = a.fleet_payload()
        assert set(fleet_view["nodes"]) >= {"node-a", "node-b"}
        health = a.health_payload()
        assert health["node"] == "node-a"
        assert set(health["fleet"]["nodes"]) >= {"node-a", "node-b"}


class TestRollingRestart:
    """Real serve-worker subprocesses SIGKILLed mid-job."""

    def _spawn_worker(self, state_dir, node):
        env = {**os.environ, "PYTHONPATH": SRC_ROOT}
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-worker",
                "--state-dir", str(state_dir),
                "--node", node,
                "--workers", "1",
                "--lease-seconds", "2",
                "--retry-backoff", "0.1",
                "--job-timeout", "60",
                # Every job's first attempt stalls: a wide, deterministic
                # window to SIGKILL a node that holds a lease.  Chaos
                # never touches products, so completions stay canonical.
                "--chaos", "stall=1.0,stall_seconds=1.5",
                "--chaos-seed", "7",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_running_on(self, frontend, node, deadline=30.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if frontend.queue.running_by_node().get(node, 0) > 0:
                return True
            time.sleep(0.05)
        return False

    def test_zero_lost_jobs_across_rolling_restart(self, tmp_path):
        state = tmp_path / "state"
        # Worker-less fleet frontend: admits jobs, heartbeats, reaps.
        frontend = _fleet_app(
            state, "frontend", workers=0, lease_seconds=2.0,
            retry_backoff_seconds=0.1,
        ).start()
        workers = {
            "w0": self._spawn_worker(state, "w0"),
            "w1": self._spawn_worker(state, "w1"),
        }
        acknowledged = []
        try:
            def submit(seed):
                job, created = frontend.submit_payload(
                    {"dataset": "florida", "size": SIZE, "seed": seed}
                )
                assert created
                acknowledged.append(job.id)

            for seed in range(3):
                submit(seed)

            # Roll each node in turn: SIGKILL it while it holds a lease,
            # then bring up its replacement -- submissions continue.
            for generation, victim in enumerate(("w0", "w1")):
                assert self._wait_running_on(frontend, victim), (
                    f"{victim} never claimed a job"
                )
                workers[victim].kill()
                workers[victim].wait(timeout=10)
                submit(100 + generation)  # sustained traffic during the roll
                replacement = f"{victim}-respawn"
                workers[replacement] = self._spawn_worker(state, replacement)

            # Every acknowledged job lands done -- none lost, none dead.
            assert frontend.queue.wait_idle(timeout=DEADLINE)
            states = {jid: frontend.queue.get(jid).state for jid in acknowledged}
            assert set(states.values()) == {"done"}, states

            # The killed nodes' leases were reaped by a *survivor*.
            merged = merge_flight_journals(
                discover_flight_journals(str(state))
            )
            reaps = [e for e in merged if e["event"] == "reaped"]
            assert reaps, "no lease was reaped despite SIGKILL mid-lease"
            assert all(e.get("node") not in ("w0", "w1") or
                       e.get("node") != e.get("worker", "").split("/")[0]
                       for e in reaps)
            reaper_nodes = {e.get("node") for e in reaps}
            assert reaper_nodes - {"w0", "w1"}, (
                f"reaps only attributed to dead nodes: {reaper_nodes}"
            )
        finally:
            for proc in workers.values():
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in workers.values():
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
            frontend.drain(timeout=DEADLINE)
            frontend.queue.dispose()
