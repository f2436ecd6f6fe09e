"""BENCHMARK.json is well formed and names only what the runner wraps."""

import json
import re
from pathlib import Path

import contract

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_names_and_bounds_are_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]


def test_every_reported_layer_has_a_wrapper():
    from layers import BUS, DATA, SEARCH, SERVE

    wrapped = {b.layer for b in SEARCH + DATA + SERVE + BUS} | {"bus.wait", "bench.unattributed"}
    assert set(contract.REPORTED_LAYERS) == wrapped
