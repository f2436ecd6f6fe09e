"""serve_florida64: open-loop Florida 64 px pair jobs against ``repro serve``.

A ``repro serve`` process (asyncio frontend, 2 worker threads, default
exhaustive schedule, fresh state dir) receives jobs on a fixed
schedule, whether or not earlier jobs have finished (an open loop: the
users are independent).  Jobs alternate between a new seed (cold:
frames, compute and cache write) and a seed finished during set-up
(warm: frames, fingerprint and cache read).  Cold jobs run the
production ``ParallelSMA`` path under the degradation ladder, so a
change only to ``track_dense``'s batched engine must show no gain
here.  Each job is timed from its scheduled send time until the server
marks it done.
"""

from __future__ import annotations

import http.client
import io
import itertools
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import stats
from common import (PROBE_REF_S, Outcome, Speed, clock, host_phase_seconds, phase_table,
                    self_time_table, unattributed_frac)
from hygiene import Hygiene, peak_rss_mb
from selftime import merge_tables

HERE = Path(__file__).resolve().parent
SIZE = 64
SETUP_REPEATS = 5
#: Jobs per second, cold and warm alternating: about half the cold
#: capacity of two workers on a 2-CPU host (see README.md).
RATE = 2.0
#: Seeds computed during set-up; warm jobs repeat them in turn.
WARM_POOL = 4
#: Status-poll period of the client while the warm pool is computed.
#: Latency comes from the server's own completion stamp, so the period
#: only bounds how soon the client notices.
POLL_SECONDS = 0.05
#: In the timed phase the client polls once per send period, this share
#: of the period after each send.  A status request handled while a job
#: runs takes the interpreter lock from the worker for a switch interval
#: or more; a fast poll lands in about half the warm jobs and splits
#: their latencies into two modes ~9 ms apart, so their median jumps
#: between the modes from run to run.  Polled just before the next send,
#: the server is idle but for the odd slow cold job.
POLL_PHASE = 0.9
#: Share of the send period, after each send, at which the client runs
#: a host-speed probe (see ``common.Speed``).
PROBE_PHASE = 0.7
#: Speed probes before and after each server start.
PROBES = 3
#: After the last send, how long jobs may take to finish before they
#: count as failed.
DRAIN_SECONDS = 60.0
LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")


class Connection:
    """One keep-alive HTTP connection; reconnects once if the server closed it."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.rtt: list[tuple[float, float]] = []  # (wall start, seconds)

    def request(self, method: str, path: str, payload: dict | None = None):
        body = None if payload is None else json.dumps(payload).encode()
        started, t0 = time.time(), clock()
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body=body,
                                  headers={"Content-Type": "application/json"})
                response = self.conn.getresponse()
                data = response.read()
                break
            except (http.client.HTTPException, ConnectionError):
                self.conn.close()
                if attempt:
                    raise
        self.rtt.append((started, clock() - t0))
        return response.status, data

    def json(self, method: str, path: str, payload: dict | None = None):
        status, data = self.request(method, path, payload)
        return status, json.loads(data) if data else {}

    def close(self) -> None:
        self.conn.close()


def start_server(hygiene: Hygiene, workdir: Path, trace_args=()):
    """Spawn ``repro serve`` on a fresh state dir; returns (proc, port, set-up seconds)."""
    log_path = workdir / "server.log"
    argv = [sys.executable, str(HERE / "serve_proc.py"), *trace_args, "--",
            "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
            "--state-dir", str(workdir / "state")]
    t0 = clock()
    with open(log_path, "w") as log:
        proc = hygiene.spawn(argv, stdout=log, stderr=subprocess.STDOUT)
    port = None
    while port is None:
        match = LISTEN.search(log_path.read_text())
        if match:
            port = int(match.group(1))
        elif proc.poll() is not None or clock() - t0 > 120:
            raise RuntimeError(f"server did not start:\n{log_path.read_text()}")
        else:
            time.sleep(0.005)
    conn = Connection(port)
    try:
        while True:
            try:
                if conn.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if clock() - t0 > 120:
                raise RuntimeError("server never answered /healthz with 200")
            time.sleep(0.005)
    finally:
        conn.close()
    return proc, port, clock() - t0


def _request(seed: int) -> dict:
    return {"dataset": "florida", "size": SIZE, "seed": seed}


def _wait_done(conn: Connection, job_ids, timeout: float) -> dict:
    deadline = clock() + timeout
    status = {}
    while len(status) < len(job_ids) and clock() < deadline:
        for job_id in job_ids:
            if job_id not in status:
                code, body = conn.json("GET", f"/v1/jobs/{job_id}")
                if code == 200 and body["state"] in ("done", "dead"):
                    status[job_id] = body
        time.sleep(POLL_SECONDS)
    return status


def _open_loop(port: int, plan: list, speed: Speed):
    """Send ``plan`` on schedule over one connection, poll on a second.

    Polls and speed probes fall between the sends (see ``POLL_PHASE``).
    Returns per-job records and the (wall) window of the timed phase.
    """
    sender, poller = Connection(port), Connection(port)
    sent: list[dict] = []
    lock = threading.Lock()
    stop = threading.Event()
    start_mono, start_wall = clock(), time.time()

    def send() -> None:
        for i, (kind, seed) in enumerate(plan):
            due = start_mono + i / RATE
            if stop.wait(max(0.0, due - clock())):
                return
            entry = {"i": i, "kind": kind, "seed": seed, "due_wall": start_wall + i / RATE,
                     "late": clock() - due}
            code, body = sender.json("POST", "/v1/jobs", _request(seed))
            entry["http"] = code
            entry["id"] = body.get("id") if code == 202 else None
            with lock:
                sent.append(entry)

    thread = threading.Thread(target=send, name="loadgen-sender")
    thread.start()
    try:
        pending: dict[str, dict] = {}
        seen = 0
        hard_deadline = start_mono + len(plan) / RATE + DRAIN_SECONDS
        for k in itertools.count():
            poll_at = start_mono + (k + POLL_PHASE) / RATE
            if poll_at > hard_deadline:
                break
            time.sleep(max(0.0, start_mono + (k + PROBE_PHASE) / RATE - clock()))
            speed.probe()
            time.sleep(max(0.0, poll_at - clock()))
            sending = thread.is_alive()  # read before the entries, so none is missed
            with lock:
                fresh, seen = sent[seen:], len(sent)
            for entry in fresh:
                if entry["id"] is not None:
                    pending[entry["id"]] = entry
            for job_id, entry in list(pending.items()):
                code, body = poller.json("GET", f"/v1/jobs/{job_id}")
                if code == 200 and body["state"] in ("done", "dead"):
                    entry["status"] = body
                    if body["state"] == "done":
                        poller.request("GET", f"/v1/products/{job_id}")
                    del pending[job_id]
            if not pending and not sending:
                break
    finally:
        stop.set()
        thread.join()
    window = (start_wall, time.time())
    rtts = [s for started, s in sender.rtt + poller.rtt if window[0] <= started <= window[1]]
    sender.close()
    poller.close()
    return sent, window, rtts


def outcomes(plan: list, sent: list[dict], wrong: set, cap: float):
    """Which jobs failed, and the latency samples of each kind.

    A job fails when it was never sent, refused (any status but 202:
    429 backpressure, 503 draining), not finished in time, dead, or its
    product was wrong.  A failed job misses every latency limit: it
    enters its kind's samples as ``cap`` seconds, the longest any job
    could have been waited for.
    """
    why = {"unsent": len(plan) - len(sent), "refused": 0, "unfinished": 0, "dead": 0,
           "wrong": 0}
    failed = set(range(len(sent), len(plan)))
    latency = {kind: [] for kind, _ in plan}
    for kind, _ in plan[len(sent):]:
        latency[kind].append(cap)
    for entry in sent:
        status = entry.get("status")
        if entry["http"] != 202:
            reason = "refused"
        elif status is None:
            reason = "unfinished"
        elif status["state"] != "done":
            reason = "dead"
        elif entry["i"] in wrong:
            reason = "wrong"
        else:
            latency[entry["kind"]].append(status["finished_at"] - entry["due_wall"])
            continue
        why[reason] += 1
        failed.add(entry["i"])
        latency[entry["kind"]].append(cap)
    return failed, latency, why


def _field_bytes(conn: Connection, job_id: str) -> bytes | None:
    status, blob = conn.request("GET", f"/v1/products/{job_id}/field")
    return blob if status == 200 else None


def _field_arrays(blob: bytes) -> dict:
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        return {k: npz[k] for k in ("u", "v", "error")}


def _reference_field(seed: int) -> dict:
    """The product computed in this process with the worker's own recipe."""
    from repro.data.datasets import florida_thunderstorm
    from repro.parallel.memory_plan import max_feasible_segment_rows
    from repro.parallel.parallel_sma import machine_for_image
    from repro.reliability.degrade import DegradationLadder
    from repro.serve.jobs import JobRequest

    request = JobRequest(dataset="florida", size=SIZE, seed=seed)
    ds = florida_thunderstorm(size=SIZE, n_frames=request.frames, seed=seed)
    config = ds.config.replace(n_zs=request.search, n_zt=request.template)
    before, after = ds.frames[0], ds.frames[1]
    machine = machine_for_image(before.shape)
    planned = max(1, max_feasible_segment_rows(
        config, machine.layers_for_image(*before.shape), machine))
    dt = after.time_seconds - before.time_seconds
    result, _ = DegradationLadder(config).track_pair(
        before.surface, after.surface, machine, planned, dt_seconds=dt if dt > 0 else 1.0,
        intensity_before=before.intensity, intensity_after=after.intensity,
    )
    return {"u": result.u, "v": result.v, "error": result.error}


def run(ctx) -> Outcome:
    out = Outcome()
    base = (ctx.seed % 2**20) * 1000
    pool_seeds = [base + k for k in range(WARM_POOL)]
    # At least one traced and one untraced block of two jobs.
    n_jobs = max(4, int(round(RATE * ctx.seconds)))
    plan = [("cold", base + 100 + i) if i % 2 == 0 else ("warm", pool_seeds[(i // 2) % WARM_POOL])
            for i in range(n_jobs)]

    setup_speed, speed = Speed(), Speed()
    setups = []
    for k in range(SETUP_REPEATS - 1):
        setup_speed.probe(PROBES)
        proc, _, seconds = start_server(ctx.hygiene, ctx.hygiene.tmpdir(f"serve-setup{k}-"))
        setups.append(seconds)
        Hygiene.stop(proc)
    workdir = ctx.hygiene.tmpdir("serve-")
    trace_out = workdir / "trace.json"
    trace_args = ["--trace-out", str(trace_out)] if ctx.trace else []
    setup_speed.probe(PROBES)
    proc, port, seconds = start_server(ctx.hygiene, workdir, trace_args)
    setups.append(seconds)
    setup_speed.probe(PROBES)

    admin = Connection(port)
    pool_ids = [admin.json("POST", "/v1/jobs", _request(s))[1]["id"] for s in pool_seeds]
    primed = _wait_done(admin, pool_ids, DRAIN_SECONDS)
    out.check("warm pool computed during set-up",
              all(primed.get(j, {}).get("state") == "done" for j in pool_ids))

    sent, window, rtts = _open_loop(port, plan, speed)

    # Correctness: warm products byte-identical to their cold products;
    # one cold product equal to an in-process DegradationLadder run.
    pool_bytes = {s: _field_bytes(admin, j) for s, j in zip(pool_seeds, pool_ids)}
    out.check("warm pool products fetched", None not in pool_bytes.values())
    done = [e for e in sent if e.get("status", {}).get("state") == "done"]
    wrong = set()
    for entry in done:
        if entry["kind"] == "warm":
            blob = _field_bytes(admin, entry["id"])
            if blob is None or blob != pool_bytes[entry["seed"]]:
                wrong.add(entry["i"])
    sample = next((e for e in done if e["kind"] == "cold"), None)
    if sample is not None:
        blob = _field_bytes(admin, sample["id"])
        reference = _reference_field(sample["seed"])
        if blob is None or any(_field_arrays(blob)[k].tobytes() != reference[k].tobytes()
                               for k in reference):
            wrong.add(sample["i"])
    out.check("sampled cold product equals in-process DegradationLadder.track_pair",
              sample is not None and sample["i"] not in wrong)
    metrics_body = admin.json("GET", "/metrics")[1]
    admin.close()

    rss = peak_rss_mb(proc.pid)
    code = Hygiene.stop(proc)
    out.check("server drained and exited 0 on SIGTERM", code == 0, f"exit code {code}")

    failed, raw, why = outcomes(plan, sent, wrong, cap=len(plan) / RATE + DRAIN_SECONDS)
    # A failed job's cap is scaled too: the factor only expresses every
    # latency at the reference speed.
    latency = {kind: [s * speed.factor() for s in v] for kind, v in raw.items()}
    out.attempted = len(plan)
    out.failed = len(failed)
    out.check("every job done and correct", not failed,
              ", ".join(f"{n} {reason}" for reason, n in why.items()))
    warm_done = [e for e in done if e["kind"] == "warm"]
    misses = sum(1 for e in warm_done if not e["status"].get("cache_hit"))
    out.check("every warm job answered from the result cache", misses == 0,
              f"{misses} of {len(warm_done)} warm jobs computed")
    late_max = max(e["late"] for e in sent)
    out.e2e = {
        "setup_s": stats.median(setups) * setup_speed.factor(),
        "peak_rss_mb": rss,
        "main_p50_s": stats.median(latency["cold"]),
        "alt_p50_s": stats.median(latency["warm"]),
    }
    out.extra = {
        "cold_p50_s": out.e2e["main_p50_s"], "warm_p50_s": out.e2e["alt_p50_s"],
        "failed_frac": out.failed / out.attempted, "loadgen.late_max_s": late_max,
        "raw.cold_p50_s": stats.median(raw["cold"]), "raw.warm_p50_s": stats.median(raw["warm"]),
        "raw.setup_s": stats.median(setups), "probe_p50_s": speed.median(),
        "setup_probe_p50_s": setup_speed.median(),
        "rate_per_s": RATE, "setup_samples": setups, "setup_spread": stats.spread(setups),
        "latency": latency, "raw_latency": raw,
    }
    out.report.append(
        f"serve_florida64: {len(plan)} jobs at {RATE:g}/s open loop; "
        f"failed_frac {out.failed / out.attempted:.3f}; loadgen late max {late_max:.4f} s; "
        f"setup median {out.e2e['setup_s']:.4f} s over {len(setups)} "
        f"(quartile spread {out.extra['setup_spread']:.3f})")
    out.report.append(
        f"  raw: cold p50 {out.extra['raw.cold_p50_s']:.4f} s, warm p50 "
        f"{out.extra['raw.warm_p50_s']:.4f} s, setup {out.extra['raw.setup_s']:.4f} s; "
        f"speed probe median {speed.median():.5f} s, in set-up {setup_speed.median():.5f} s "
        f"(reference {PROBE_REF_S} s); "
        f"below, at reference speed")
    for kind in ("cold", "warm"):
        t = stats.tail(latency[kind])
        line = f"  {kind}: p50 {stats.median(latency[kind]):.4f} s over {len(latency[kind])} jobs"
        if t is not None:
            out.extra[f"{kind}_tail_s"] = {"value": t[0], "percentile": t[1], "n": t[2]}
            line += f"; tail p{t[1]:.1f} {t[0]:.4f} s"
        out.report.append(line)
    if ctx.trace:
        _traced_layers(out, json.loads(trace_out.read_text()), sent, window, rtts,
                       metrics_body)
    return out


def _traced_layers(out, dump, sent, window, rtts, metrics_body) -> None:
    jobs = [e for e in sent if e.get("status")]
    # Every pair the server computed, set-up included, is in its ledger.
    n_computed = WARM_POOL + sum(1 for e in jobs if not e["status"].get("cache_hit"))
    traced = [e for e in jobs if e["id"] in dump["jobs"]]
    tables = [dump["jobs"][e["id"]] for e in traced]
    table = merge_tables(tables)
    units = len(traced)
    per_unit, lines = self_time_table(table, units, "serve job (cold and warm)")
    out.report += lines

    cold_tables = [dump["jobs"][e["id"]] for e in traced if e["kind"] == "cold"]
    cold_units = max(1, len(cold_tables))
    cold_per_unit, _ = self_time_table(merge_tables(cold_tables), cold_units, "cold")
    breakdown = [(row["phase"], row["modeled_seconds"], row["gaussian_eliminations"])
                 for row in metrics_body["ledger"]["breakdown"]]
    out.report.append("modeled MP-2 phases vs measured host seconds, per cold job")
    out.report += phase_table(breakdown, host_phase_seconds(cold_per_unit), n_computed)

    routes = {"submit": 0.0, "status": 0.0, "product": 0.0, "other": 0.0}
    for started, kind, seconds in dump["routes"]:
        if window[0] <= started <= window[1]:
            routes[kind] += seconds
    n = len(jobs)
    gaps, latencies = [], []
    for e in traced:
        status = e["status"]
        latency = status["finished_at"] - status["submitted_at"]
        gaps.append(abs(latency - status["queue_wait_seconds"] - dump["walls"][e["id"]]))
        latencies.append(latency)
    decomposition_gap = sum(gaps) / sum(latencies)
    cold_walls = {True: [], False: []}
    for e in jobs:
        if e["kind"] == "cold":
            cold_walls[e["id"] in dump["jobs"]].append(dump["walls"][e["id"]])
    overhead = stats.median(cold_walls[True]) / stats.median(cold_walls[False]) - 1.0
    route_total = sum(routes.values())
    extra = {
        "serve.queue_wait_s": sum(e["status"]["queue_wait_seconds"] for e in jobs) / n,
        "serve.route.submit_s": routes["submit"] / n,
        "serve.route.status_s": routes["status"] / n,
        "serve.route.product_s": routes["product"] / n,
        "serve.frontend_s": (sum(rtts) - route_total) / n,
        "trace.decomposition_gap_frac": decomposition_gap,
    }
    counts = {
        "core.prep.fits": table["calls"]["core.prep.fit"] / units,
        "serve.cache_hit_frac": sum(1 for e in jobs if e["status"].get("cache_hit")) / n,
    }
    out.report.append("per job: " + ", ".join(f"{k} {v:.5f}" for k, v in extra.items())
                      + "".join(f", {k} {v:g}" for k, v in counts.items()))
    out.check("job latency = queue wait + worker layers within 5%", decomposition_gap <= 0.05,
              f"gap {decomposition_gap:.4f} of latency over {len(traced)} traced jobs")
    out.extra.update(extra)
    out.extra["layer_self_s"] = per_unit
    out.extra["layer_counts"] = counts
    out.layers = {
        "kernels.pointwise_s": per_unit["kernels.pointwise"],
        "kernels.box_sum_s": per_unit["kernels.box_sum"],
        "kernels.box_sum_calls": table["calls"]["kernels.box_sum"] / units,
        "core.solve_s": per_unit["core.solve"],
        "core.ge_solves": table["counts"]["core.ge_solves"] / units,
        "trace.unattributed_frac": unattributed_frac(table),
        "trace.overhead_frac": overhead,
    }
