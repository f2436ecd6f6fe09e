"""Which public functions make up each layer, and how to wrap them.

Every function is replaced at *each* module attribute bound to it --
the defining module and every module that imported it by name -- so a
call through any import path is charged.  ``only`` narrows that to the
listed modules where a function also runs inside another layer (the
semi-fluid ``box_sum`` also serves the score volume, whose box sums
belong to ``core.score_volume``).
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass

import numpy as np

from selftime import Patcher, SelfTimer


def _systems(args, kwargs, result) -> dict:
    fields = args[0] if args else kwargs["fields"]
    return {"core.ge_solves": int(np.prod(np.shape(fields)[:-1]))}


@dataclass(frozen=True)
class Binding:
    layer: str
    module: str
    attr: str
    cls: str | None = None
    only: tuple[str, ...] | None = None
    counter: object = None


#: Search-path layers: run in the pair workload, in serve workers and in
#: the stream consumer.
SEARCH = (
    Binding("kernels.pointwise", "repro.kernels.reference", "pointwise_fields"),
    Binding("kernels.box_sum", "repro.kernels.reference", "box_sum_stack"),
    Binding("kernels.box_sum", "repro.core.semifluid", "box_sum", only=("repro.core.matching",)),
    Binding("kernels.window_sums", "repro.kernels.reference", "strided_window_sums"),
    Binding("core.solve", "repro.core.continuous", "solve_accumulated", counter=_systems),
    Binding("core.prep.fit", "repro.core.prep", "prepare_frame"),
    Binding("core.prep.lookup", "repro.core.matching", "prepare_frames"),
    Binding("core.score_volume", "repro.core.semifluid", "compute_score_volume"),
    Binding("core.semifluid_map", "repro.core.semifluid", "semifluid_displacements"),
    Binding("core.fields_self", "repro.core.matching", "hypothesis_fields"),
    Binding("core.merge", "repro.core.matching", "track_dense"),
    Binding("parallel.segment_merge", "repro.parallel.segmentation", "run", cls="SegmentedSearch"),
    Binding("parallel.pair_self", "repro.parallel.parallel_sma", "track_pair", cls="ParallelSMA"),
    Binding("reliability.ladder_self", "repro.reliability.degrade", "track_pair",
            cls="DegradationLadder"),
)

#: Synthetic frame generation.
DATA = (
    Binding("data.synth", "repro.data.datasets", "florida_thunderstorm"),
    Binding("data.synth", "repro.data.datasets", "hurricane_frederic"),
    Binding("data.synth", "repro.data.datasets", "hurricane_luis"),
)

#: Serve-worker layers (server process only).
SERVE = (
    Binding("serve.fingerprint", "repro.serve.cache", "result_key"),
    Binding("serve.cache_read", "repro.serve.cache", "get", cls="ResultCache"),
    Binding("serve.cache_write", "repro.serve.cache", "put", cls="ResultCache"),
    Binding("serve.queue_complete", "repro.serve.queue", "complete", cls="JobQueue"),
)

#: Consumer-side bus layer (stream workload).
BUS = (Binding("bus.read", "repro.bus.ring", "read_frame", cls="FrameRing"),)


#: Imported before wrapping so that every by-name import already exists
#: and gets patched.
PRELOAD = (
    "repro.core.matching", "repro.parallel.parallel_sma", "repro.parallel.segmentation",
    "repro.reliability", "repro.data", "repro.bus", "repro.serve", "repro.serve.frontend",
    "repro.serve.workers",
)


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def bound_sites(original) -> list[tuple[str, str]]:
    """Every ``(module, attribute)`` of a loaded ``repro`` module bound to ``original``."""
    sites = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module.__name__, attr))
    return sorted(sites)


def install(timer: SelfTimer, patcher: Patcher, bindings) -> None:
    """Wrap every binding's function at all of its bound sites."""
    for name in PRELOAD:
        importlib.import_module(name)
    for b in bindings:
        module = importlib.import_module(b.module)
        if b.cls is not None:
            owner = getattr(module, b.cls)
            patcher.set(owner, b.attr, timer.wrap(b.layer, vars(owner)[b.attr], b.counter))
            continue
        original = getattr(module, b.attr)
        wrapper = timer.wrap(b.layer, original, b.counter)
        for mod_name, attr in bound_sites(original):
            if b.only is None or mod_name in b.only:
                patcher.set(sys.modules[mod_name], attr, wrapper)
