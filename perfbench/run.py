#!/usr/bin/env python3
"""Run one workload of the pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload pair_luis128 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` wraps each
layer's public functions and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run is appended, with its host
block, to ``.perfbench/records.jsonl``; ``perfbench/compare.py`` reads
those records.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
RECORDS = WORKDIR / "records.jsonl"

sys.path.insert(0, str(HERE))

from contract import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _terminate(signum, frame) -> None:
    # Unwind through the workload's finally blocks so teardown runs.
    raise SystemExit(128 + signum)


def _default_signals() -> None:
    # Process-pool workers forked by the program are stopped with SIGTERM
    # and must die on the spot, as they would without this runner's
    # handler: unwound from wherever they block, one was seen to hang
    # and with it the pool's join.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=Path, default=RECORDS,
                        help="JSON-lines file the run's record is appended to")
    return parser.parse_args(argv)


def _result_metrics(outcome, trace: bool) -> dict:
    values, names = (outcome.layers, PER_LAYER) if trace else (outcome.e2e, END_TO_END)
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {n: {"value": float(values[n]), "unit": u} for n, u in names.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(HERE), os.environ.get("PYTHONPATH")) if p
    )
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    os.register_at_fork(after_in_child=_default_signals)

    import importlib

    from host import host_block, provenance
    from hygiene import Hygiene
    from selftime import Patcher, SelfTimer

    workload = importlib.import_module("workload_" + args.workload.split("_", 1)[0])
    hygiene = Hygiene(WORKDIR)
    ctx = SimpleNamespace(
        # Dataset generators take non-negative seeds below 2**31.
        root=ROOT, seed=args.seed % 2**31, seconds=args.seconds, trace=bool(args.trace),
        hygiene=hygiene, timer=SelfTimer(), patcher=Patcher(),
    )
    try:
        outcome = workload.run(ctx)
    finally:
        # A second signal must not cut the teardown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        ctx.patcher.restore()
        leftovers = hygiene.teardown()
    for problem in leftovers:
        print(f"error: {problem}", file=sys.stderr)
    if leftovers:
        return 1

    metrics = _result_metrics(outcome, ctx.trace)
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": host_block(),
        "provenance": provenance(ROOT),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "e2e": outcome.e2e,
        "layers": outcome.layers,
        "extra": outcome.extra,
    }
    args.records.parent.mkdir(parents=True, exist_ok=True)
    with open(args.records, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    for line in outcome.report:
        print(line)
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
