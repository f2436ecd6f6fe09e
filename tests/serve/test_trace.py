"""Job-lifecycle tracing over the serving stack.

The tentpole acceptance checks live here: a served job's trace
decomposes its latency into queue-wait / lease-held / compute /
cache-write segments that tile the wall clock, the trace survives a
chaos-crashed attempt, the Chrome-trace export is well-formed, and
``GET /metrics`` speaks Prometheus under content negotiation while the
JSON payload stays schema-compatible.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.events import FlightRecorder, flight_journal_path
from repro.obs.metrics import METRICS
from repro.obs.prom import PROM_CONTENT_TYPE, parse_exposition
from repro.reliability.injection import ServeChaosPlan
from repro.serve.frontend import make_async_server
from repro.serve.http import ServeApp

SIZE = 32
DEADLINE = 120.0


@pytest.fixture(autouse=True)
def _fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


@pytest.fixture
def server(tmp_path):
    app = ServeApp(str(tmp_path / "state"), workers=1, queue_depth=8).start()
    httpd = make_async_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        yield app, base
    finally:
        app.drain(timeout=DEADLINE)
        httpd.shutdown()
        httpd.server_close()
        thread.join()


def _get(base, path, headers=None):
    req = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _submit_and_wait(app, payload, deadline=DEADLINE):
    job, _ = app.submit_payload(payload)
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if app.queue.get(job.id).done:
            return app.queue.get(job.id)
        time.sleep(0.02)
    raise AssertionError(f"job {job.id} never finished")


PAYLOAD = {"dataset": "florida", "size": SIZE, "frames": 2}


class TestTraceEndpoint:
    def test_segments_tile_wall_clock_within_five_percent(self, server):
        app, base = server
        job = _submit_and_wait(app, PAYLOAD)
        status, _, body = _get(base, f"/v1/jobs/{job.id}/trace")
        assert status == 200
        trace = json.loads(body)
        assert trace["trace_id"] == job.trace_id
        seg = trace["segments"]
        # queue_wait + lease_held tile the wall exactly by construction;
        # the acceptance bound is the generous 5%.
        recomposed = seg["queue_wait_seconds"] + seg["lease_held_seconds"]
        assert recomposed == pytest.approx(seg["wall_seconds"], rel=0.05, abs=1e-6)
        # compute + cache_write + overhead tile lease_held.
        inner = (
            seg["compute_seconds"]
            + seg["cache_write_seconds"]
            + seg["overhead_seconds"]
        )
        assert inner == pytest.approx(seg["lease_held_seconds"], rel=0.05, abs=1e-6)
        assert seg["compute_seconds"] > 0.0

    def test_lifecycle_events_in_order(self, server):
        app, base = server
        job = _submit_and_wait(app, PAYLOAD)
        _, _, body = _get(base, f"/v1/jobs/{job.id}/trace")
        events = [e["event"] for e in json.loads(body)["events"]]
        assert events[0] == "submitted"
        assert "claimed" in events and events[-1] == "completed"
        assert events.index("submitted") < events.index("claimed")

    def test_cache_hit_trace_has_no_compute(self, server):
        app, base = server
        _submit_and_wait(app, PAYLOAD)
        second = _submit_and_wait(app, PAYLOAD)
        _, _, body = _get(base, f"/v1/jobs/{second.id}/trace")
        trace = json.loads(body)
        events = [e["event"] for e in trace["events"]]
        assert "cache_hit" in events and "compute" not in events
        assert trace["segments"]["compute_seconds"] == 0.0

    def test_chrome_format_is_loadable(self, server):
        app, base = server
        job = _submit_and_wait(app, PAYLOAD)
        status, _, body = _get(base, f"/v1/jobs/{job.id}/trace?format=chrome")
        assert status == 200
        document = json.loads(body)
        names = {e["name"] for e in document["traceEvents"]}
        assert {"job", "queue_wait", "lease_held", "compute"} <= names

    def test_unknown_job_404s_and_bad_format_400s(self, server):
        app, base = server
        status, _, _ = _get(base, "/v1/jobs/job-999999/trace")
        assert status == 404
        job = _submit_and_wait(app, PAYLOAD)
        status, _, _ = _get(base, f"/v1/jobs/{job.id}/trace?format=xml")
        assert status == 400

    def test_trace_route_does_not_shadow_job_status(self, server):
        app, base = server
        job = _submit_and_wait(app, PAYLOAD)
        status, _, body = _get(base, f"/v1/jobs/{job.id}")
        assert status == 200
        assert json.loads(body)["id"] == job.id


class TestPrometheusNegotiation:
    def test_scraper_accept_header_gets_exposition(self, server):
        app, base = server
        _submit_and_wait(app, PAYLOAD)
        status, headers, body = _get(
            base, "/metrics", headers={"Accept": "text/plain;version=0.0.4"}
        )
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        parsed = parse_exposition(body.decode("utf-8"))
        assert parsed["counters"]["serve_jobs_completed"] >= 1.0
        hist = parsed["histograms"]["serve_job_latency_seconds"]
        assert hist["buckets"]["+Inf"] == hist["count"]

    def test_default_accept_stays_json_and_schema_compatible(self, server):
        app, base = server
        _submit_and_wait(app, PAYLOAD)
        status, headers, body = _get(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        # The pre-existing JSON consumers' schema: these keys must stay.
        assert {"counters", "gauges", "histograms", "ledger", "queue"} <= set(payload)
        hist = payload["histograms"]["serve.job.latency_seconds"]
        assert {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"} <= set(hist)

    def test_slo_gauges_scrape(self, server):
        app, base = server
        _submit_and_wait(app, PAYLOAD)
        _, _, body = _get(base, "/metrics", headers={"Accept": "text/plain"})
        parsed = parse_exposition(body.decode("utf-8"))
        assert "serve_slo_latency_burn_rate" in parsed["gauges"]
        assert "serve_slo_breached" in parsed["gauges"]


class TestChaosTrace:
    def test_crashed_attempt_lifecycle_is_reconstructable(self, tmp_path):
        """crash=1.0 chaos: the first attempt dies, the reaper requeues,
        a later attempt completes -- and the trace shows all of it."""
        chaos = ServeChaosPlan.from_spec("crash=1.0", seed=7)
        app = ServeApp(
            str(tmp_path / "state"), workers=1, queue_depth=8,
            lease_seconds=0.4, max_attempts=5, chaos=chaos,
        ).start()
        try:
            job = _submit_and_wait(app, PAYLOAD)
            assert job.state == "done"
            assert job.attempts >= 2
            status, trace = app.trace_payload(job.id)
            assert status == 200
            events = [e["event"] for e in trace["events"]]
            assert "reaped" in events and "retry_scheduled" in events
            assert events[-1] == "completed"
            outcomes = [a["outcome"] for a in trace["attempts"]]
            assert outcomes[-1] == "completed"
            assert "reaped" in outcomes
            seg = trace["segments"]
            assert seg["queue_wait_seconds"] + seg["lease_held_seconds"] == (
                pytest.approx(seg["wall_seconds"], rel=0.05, abs=1e-6)
            )
        finally:
            app.drain(timeout=DEADLINE)

    def test_flight_journal_survives_recorder_restart(self, tmp_path):
        """The post-mortem path: a new recorder over the same state dir
        (what serve-admin flightlog does) replays the full lifecycle."""
        app = ServeApp(str(tmp_path / "state"), workers=1).start()
        try:
            job = _submit_and_wait(app, PAYLOAD)
        finally:
            app.drain(timeout=DEADLINE)
        recorder = FlightRecorder(
            flight_journal_path(str(tmp_path / "state"), app.node)
        )
        events = [e for e in recorder.replay() if e["job"] == job.id]
        recorder.close()
        assert [e["event"] for e in events][0] == "submitted"
        assert [e["event"] for e in events][-1] == "completed"
        assert all(e["trace"] == job.trace_id for e in events)
