"""Start ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_proc.py [--trace-out PATH] -- serve ARGS...

Without ``--trace-out`` this is exactly ``python -m repro ARGS``.  With
it, every layer's public functions are wrapped before the server
starts; jobs are traced in alternating blocks of two, counted from the
first job after the workload's warm pool (so half the cold and half the
warm jobs run traced and the rest give the untraced comparison).  Every
HTTP route call is timed.  When the server has drained and exited, the
per-job tables and route timings are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _route_kind(method: str, target: str) -> str:
    path = target.partition("?")[0].rstrip("/")
    if method == "POST" and path == "/v1/jobs":
        return "submit"
    if path.startswith("/v1/products/"):
        return "product"
    if path.startswith("/v1/jobs/"):
        return "status"
    return "other"


def traced_seq(seq: int, first: int) -> bool:
    """Jobs ``first, first+1`` traced, the next two not, and so on."""
    return seq >= first and ((seq - first) // 2) % 2 == 0


def install():
    """Wrap the layers and the worker's job execution; returns the dump function."""
    from common import ROOT_SPAN
    from layers import DATA, SEARCH, SERVE, install as install_layers
    from repro.serve import frontend
    from repro.serve.workers import WorkerPool
    from selftime import Patcher, SelfTimer
    from workload_serve import WARM_POOL

    # Queue sequence numbers start at 1; the warm pool takes the first ones.
    first_seq = WARM_POOL + 1

    timer, patcher = SelfTimer(), Patcher()
    install_layers(timer, patcher, SEARCH + DATA + SERVE)
    lock = threading.Lock()
    jobs: dict = {}
    walls: dict = {}
    routes: list = []

    execute = WorkerPool.execute

    def traced_execute(self, job):
        t0 = time.perf_counter()
        try:
            if traced_seq(job.seq, first_seq):
                with timer.collect() as table, timer.span(ROOT_SPAN):
                    execute(self, job)
                with lock:
                    jobs[job.id] = table
            else:
                execute(self, job)
        finally:
            with lock:
                walls[job.id] = time.perf_counter() - t0

    route = frontend.route

    def timed_route(app, method, target, *args, **kwargs):
        started = time.time()
        t0 = time.perf_counter()
        try:
            return route(app, method, target, *args, **kwargs)
        finally:
            with lock:
                routes.append((started, _route_kind(method, target), time.perf_counter() - t0))

    patcher.set(WorkerPool, "execute", traced_execute)
    patcher.set(frontend, "route", timed_route)

    def dump(path: str) -> None:
        with lock:
            payload = {
                "jobs": {k: {kind: dict(v) for kind, v in t.items()} for k, t in jobs.items()},
                "walls": dict(walls),
                "routes": list(routes),
            }
        Path(path).write_text(json.dumps(payload))

    return dump


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv[:split])

    from repro.cli import main as repro_main

    dump = install() if args.trace_out else None
    code = repro_main(argv[split + 1:])
    if dump is not None:
        dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
