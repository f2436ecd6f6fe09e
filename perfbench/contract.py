"""Workload and metric names: the benchmark's public contract.

Names, units and bounds are read from ``BENCHMARK.json`` at the
repository root.  Every workload reports every metric listed there, so
each one is defined for all three workloads.  ``main_p50_s`` and
``alt_p50_s`` are the two latencies each workload has:

    pair_luis128       main = exhaustive track_dense s/pair, alt = pruned
    serve_florida64    main = cold job p50, alt = warm job p50
    stream_frederic64  main = lag p50 (frame t+1 created -> pair t emitted),
                       alt = consumer service time per pair

Every timing, ``setup_s`` too, is given at the reference host speed
(``common.Speed``); the raw seconds are in the report and the record.
"""

from __future__ import annotations

import json
from pathlib import Path

_DOC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

WORKLOADS = {w["name"]: w["why"] for w in _DOC["workloads"]}
#: name -> unit; per unit of work: a pair iteration (pruned + exhaustive)
#: on pair_luis128, a job on serve_florida64, a pair on stream_frederic64.
END_TO_END = {m["name"]: m["unit"] for m in _DOC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DOC["per_layer"]}

#: Layer self times every workload prints in its traced report, whether
#: or not it enters the layer.  They are left out of PER_LAYER because a
#: workload that never enters a layer reads exactly 0 on every run.
REPORTED_LAYERS = (
    "kernels.pointwise", "kernels.box_sum", "kernels.window_sums", "core.solve",
    "core.merge", "core.fields_self", "core.prep.fit", "core.prep.lookup",
    "core.score_volume", "core.semifluid_map", "parallel.segment_merge",
    "parallel.pair_self", "reliability.ladder_self", "data.synth", "serve.fingerprint",
    "serve.cache_read", "serve.cache_write", "serve.queue_complete",
    "bus.wait", "bus.read", "bench.unattributed",
)
