"""Open-loop timing and failure accounting of the serve workload."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import workload_serve as ws
from common import Speed

STALL = 0.3


class FakeServe(BaseHTTPRequestHandler):
    """Accepts jobs (the first submit stalls), reports each done on arrival."""

    protocol_version = "HTTP/1.1"
    jobs: dict = {}
    lock = threading.Lock()

    def log_message(self, *args):
        pass

    def _reply(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            job_id = f"job-{len(self.jobs) + 1}"
            first = not self.jobs
            self.jobs[job_id] = None
        if first:
            time.sleep(STALL)
        with self.lock:
            self.jobs[job_id] = time.time()
        self._reply(202, {"id": job_id, "state": "pending"})

    def do_GET(self):  # noqa: N802
        job_id = self.path.rsplit("/", 1)[1]
        with self.lock:
            finished = self.jobs.get(job_id)
        if self.path.startswith("/v1/jobs/"):
            self._reply(200, {"id": job_id, "state": "done", "finished_at": finished,
                              "submitted_at": finished, "queue_wait_seconds": 0.0})
        else:
            self._reply(200, {"id": job_id})


@pytest.fixture
def fake_server():
    FakeServe.jobs = {}
    server = ThreadingHTTPServer(("127.0.0.1", 0), FakeServe)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
        assert not thread.is_alive()


def test_lateness_and_latency_count_from_the_scheduled_send(fake_server, monkeypatch):
    monkeypatch.setattr(ws, "RATE", 20.0)  # one job due every 50 ms
    plan = [("cold", 1), ("warm", 2), ("cold", 3), ("warm", 4)]
    sent, window, rtts = ws._open_loop(fake_server, plan, Speed())
    assert [e["i"] for e in sent] == [0, 1, 2, 3]
    # The stalled first submit holds up the sender: job 1 was due 50 ms
    # after job 0 but could only go out once job 0's submit returned.
    assert sent[1]["late"] > STALL - 0.05 - 0.02
    assert sent[1]["due_wall"] == pytest.approx(sent[0]["due_wall"] + 0.05)
    failed, latency, _ = ws.outcomes(plan, sent, set(), cap=99.0)
    assert not failed
    # Latency runs from when the job was due, so it includes the stall
    # the sender imposed on it.
    assert latency["warm"][0] >= sent[1]["late"]
    assert window[0] <= sent[0]["due_wall"] and len(rtts) >= len(plan)


def _entry(i, kind, http=202, state="done", finished=10.0):
    entry = {"i": i, "kind": kind, "http": http, "due_wall": 1.0 * i,
             "id": f"job-{i}" if http == 202 else None}
    if state is not None:
        entry["status"] = {"state": state, "finished_at": finished}
    return entry


def test_refused_dead_wrong_and_unfinished_jobs_fail_and_miss_the_limit():
    plan = [("cold", 0), ("warm", 1), ("cold", 2), ("warm", 3), ("cold", 4), ("warm", 5),
            ("cold", 6)]
    sent = [
        _entry(0, "cold"),                      # fine: 10 s from due to done
        _entry(1, "warm", http=429, state=None),  # refused by backpressure
        _entry(2, "cold", state="dead"),
        _entry(3, "warm"),                      # product differed from its cold one
        _entry(4, "cold", state=None),          # never finished
        _entry(5, "warm", http=503, state=None),  # refused while draining
    ]                                           # job 6 was never sent
    failed, latency, why = ws.outcomes(plan, sent, wrong={3}, cap=99.0)
    assert failed == {1, 2, 3, 4, 5, 6}
    assert why == {"unsent": 1, "refused": 2, "unfinished": 1, "dead": 1, "wrong": 1}
    assert sorted(latency["cold"]) == [10.0, 99.0, 99.0, 99.0]
    assert latency["warm"] == [99.0, 99.0, 99.0]
