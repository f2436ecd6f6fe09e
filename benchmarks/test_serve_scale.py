"""Horizontal scale-out: fleet throughput vs node count, over real processes.

Launches real ``repro serve`` fleets -- one asyncio frontend plus N
``repro serve-worker`` subprocesses over a shared state directory --
and measures end-to-end throughput (submit over HTTP, poll to done) at
1, 2 and 4 nodes on an identical job set.

The job mix is **latency-bound by construction**: every job's first
attempt carries a deterministic chaos stall (``stall=1.0``), so a job
is dominated by lease-held wall-clock waiting, not CPU.  That is the
regime horizontal scale-out targets -- on a single-core machine N
worker processes overlap N stalls, exactly as N hosts would overlap N
I/O-bound solves -- and it keeps the benchmark honest on any CPU
count.  Chaos never touches the product: completions are canonical,
which the digest leg proves.

Acceptance (ISSUE-10):

* >= 1.6x throughput at 2 nodes and >= 3x at 4 nodes vs 1 node,
* served field artifacts bit-identical across fleet sizes (one
  content-addressed product, regardless of which node computed it),
* a rolling restart -- SIGKILL a worker node mid-lease, bring up a
  replacement -- loses zero acknowledged jobs.

``SERVE_SCALE_SMOKE=1`` trims to {1, 2} nodes and fewer jobs for CI.
Results land in ``benchmarks/results/serve_scale.json`` and the
curated root ``BENCH_serve_scale.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import repro

from .conftest import update_bench_record

BENCH_SCALE_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve_scale.json"
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SMOKE = os.environ.get("SERVE_SCALE_SMOKE") == "1"
FLEET_SIZES = (1, 2) if SMOKE else (1, 2, 4)
N_JOBS = 6 if SMOKE else 12
SIZE = 32
STALL_SECONDS = 1.0
DEADLINE = 300.0
#: size -> minimum throughput ratio vs the single-node fleet.
THRESHOLDS = {2: 1.6, 4: 3.0}


def _env():
    return {**os.environ, "PYTHONPATH": SRC_ROOT}


def _drain_pipe(proc):
    """Keep the child's stdout from blocking it (its output is small)."""
    thread = threading.Thread(
        target=lambda: [None for _ in proc.stdout], daemon=True
    )
    thread.start()


def _read_banner(proc, deadline=30.0):
    """The listen banner's base URL (log lines may precede it)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            port = line.split("http://")[1].split(" ")[0].split(":")[1]
            _drain_pipe(proc)
            return f"http://127.0.0.1:{int(port)}"
    raise AssertionError("server never printed its listen banner")


def _launch_fleet(state_dir, nodes, workers_per_node=1):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--state-dir", str(state_dir),
            "--nodes", str(nodes),
            "--workers-per-node", str(workers_per_node),
            "--lease-seconds", "10",
            "--job-timeout", "120",
            "--chaos", f"stall=1.0,stall_seconds={STALL_SECONDS}",
            "--chaos-seed", "11",
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc, _read_banner(proc)


def _get(base, path, timeout=10):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, resp.read()


def _get_json(base, path, timeout=10):
    status, body = _get(base, path, timeout=timeout)
    assert status == 200, (path, status)
    return json.loads(body)


def _post_json(base, path, payload, timeout=10):
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _wait_fleet_ready(base, expected_workers, deadline=60.0):
    """Block until every worker node heartbeats, so the timed phase
    measures steady-state throughput, not process startup."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            health = _get_json(base, "/healthz")
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
            continue
        nodes = health.get("fleet", {}).get("nodes", {})
        workers = [n for n in nodes if not n.endswith("-frontend")]
        if len(workers) >= expected_workers:
            return
        time.sleep(0.1)
    raise AssertionError(f"fleet never reached {expected_workers} worker nodes")


def _wait_all_done(base, job_ids, deadline=DEADLINE):
    end = time.monotonic() + deadline
    pending = list(job_ids)
    while pending and time.monotonic() < end:
        still = []
        for jid in pending:
            job = _get_json(base, f"/v1/jobs/{jid}")
            assert job["state"] != "dead", job
            if job["state"] != "done":
                still.append(jid)
        pending = still
        if pending:
            time.sleep(0.1)
    assert not pending, f"jobs never finished: {pending}"


def _run_fleet_leg(tmp_path, nodes):
    """One timed fleet run; (seconds, jobs/sec, {seed: field digest})."""
    state_dir = tmp_path / f"fleet-{nodes}"
    proc, base = _launch_fleet(state_dir, nodes)
    try:
        _wait_fleet_ready(base, expected_workers=nodes)
        start = time.perf_counter()
        ids = {}
        for seed in range(N_JOBS):
            status, accepted = _post_json(
                base, "/v1/jobs", {"dataset": "florida", "size": SIZE, "seed": seed}
            )
            assert status == 202
            ids[seed] = accepted["id"]
        _wait_all_done(base, ids.values())
        seconds = time.perf_counter() - start
        digests = {}
        for seed, jid in ids.items():
            status, field_bytes = _get(base, f"/v1/products/{jid}/field", timeout=30)
            assert status == 200
            digests[seed] = hashlib.sha256(field_bytes).hexdigest()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    assert proc.returncode == 0
    return seconds, N_JOBS / seconds, digests


def test_fleet_throughput_scales_with_nodes(tmp_path, results_dir):
    legs = {}
    digests_by_size = {}
    for nodes in FLEET_SIZES:
        seconds, rate, digests = _run_fleet_leg(tmp_path, nodes)
        legs[nodes] = {
            "jobs": N_JOBS,
            "seconds": seconds,
            "jobs_per_second": rate,
        }
        digests_by_size[nodes] = digests
        print(f"\nfleet x{nodes}: {N_JOBS} jobs in {seconds:.2f}s ({rate:.2f}/s)")

    baseline = legs[1]["jobs_per_second"]
    speedups = {}
    for nodes in FLEET_SIZES:
        if nodes == 1:
            continue
        speedups[nodes] = legs[nodes]["jobs_per_second"] / baseline
        print(f"fleet x{nodes}: {speedups[nodes]:.2f}x vs 1 node")

    # Bit-identity: the same request produces the same artifact bytes
    # no matter how many nodes raced to compute it.
    for nodes, digests in digests_by_size.items():
        assert digests == digests_by_size[1], (
            f"{nodes}-node fleet served different field bytes"
        )

    record = {
        "size": SIZE,
        "jobs": N_JOBS,
        "stall_seconds": STALL_SECONDS,
        "smoke": SMOKE,
        "fleets": {str(n): legs[n] for n in legs},
        "speedups": {str(n): speedups[n] for n in speedups},
        "digests_bit_identical": True,
    }
    (results_dir / "serve_scale.json").write_text(json.dumps(record, indent=2) + "\n")
    update_bench_record("serve_scale", record, path=BENCH_SCALE_PATH)

    for nodes, floor in THRESHOLDS.items():
        if nodes in speedups:
            assert speedups[nodes] >= floor, (
                f"{nodes}-node fleet only {speedups[nodes]:.2f}x (need {floor}x)"
            )


def test_rolling_restart_loses_zero_jobs(tmp_path, results_dir):
    """SIGKILL a worker node mid-lease under sustained submissions."""
    state_dir = tmp_path / "restart"

    def spawn_worker(node):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-worker",
                "--state-dir", str(state_dir),
                "--node", node,
                "--workers", "1",
                "--lease-seconds", "2",
                "--retry-backoff", "0.1",
                "--job-timeout", "60",
                "--chaos", "stall=1.0,stall_seconds=1.0",
                "--chaos-seed", "7",
            ],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    frontend = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--state-dir", str(state_dir),
            "--workers", "0",
            "--node", "frontend",
            "--lease-seconds", "2",
            "--retry-backoff", "0.1",
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    base = _read_banner(frontend)

    workers = {"w0": spawn_worker("w0"), "w1": spawn_worker("w1")}
    acknowledged = []
    try:
        _wait_fleet_ready(base, expected_workers=2)

        def submit(seed):
            status, accepted = _post_json(
                base, "/v1/jobs", {"dataset": "florida", "size": SIZE, "seed": seed}
            )
            assert status == 202
            acknowledged.append(accepted["id"])

        for seed in range(4):
            submit(seed)

        # Wait for w0 to hold a lease, then kill it without ceremony.
        end = time.monotonic() + 30.0
        while time.monotonic() < end:
            nodes = _get_json(base, "/healthz")["fleet"]["nodes"]
            if nodes.get("w0", {}).get("in_flight", 0) > 0:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("w0 never claimed a job")
        workers["w0"].kill()
        workers["w0"].wait(timeout=10)

        submit(100)  # traffic keeps flowing during the roll
        workers["w0-respawn"] = spawn_worker("w0-respawn")
        submit(101)

        _wait_all_done(base, acknowledged)
        health = _get_json(base, "/healthz")
        assert health["jobs_dead"] == 0
        record = {
            "jobs": len(acknowledged),
            "killed_nodes": 1,
            "lost": 0,
            "dead": health["jobs_dead"],
        }
        (results_dir / "serve_scale_restart.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        update_bench_record("rolling_restart", record, path=BENCH_SCALE_PATH)
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in workers.values():
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
        frontend.send_signal(signal.SIGTERM)
        frontend.wait(timeout=60)
    assert frontend.returncode == 0
