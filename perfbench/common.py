"""What a workload returns, and the helpers the workloads share."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from contract import REPORTED_LAYERS

#: Name of the root span of a traced unit of work; its self time is the
#: part of the unit no named layer explains.
ROOT_SPAN = "bench.unattributed"

clock = time.perf_counter

#: Seconds one speed probe takes at the reference host speed.
PROBE_REF_S = 0.015


def _probe_kernel() -> int:
    """Fixed interpreter work, ~15 ms."""
    s = 0
    for i in range(180_000):
        s += i * i % 7
    return s


class Speed:
    """Host-speed probes over one phase of a run (set-up or timed work).

    The host's speed drifts by up to 2x over tens of seconds, and every
    timing of a run drifts with it (README.md, Steadiness).  The probe is
    the benchmark's own fixed code, run in idle moments spread over the
    phase; seconds timed in the phase times :meth:`factor` are the
    seconds they would have taken at the reference speed.  One factor
    per phase: single probes also catch the host's second-to-second
    jumps, which the timed work mostly averages out.  A change to the
    program cannot move the probe, so it moves the scaled seconds as it
    moves the raw ones.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = clock()
            _probe_kernel()
            self.probes.append(clock() - t0)

    def median(self) -> float:
        return statistics.median(self.probes)

    def factor(self) -> float:
        return PROBE_REF_S / self.median()


@dataclass
class Outcome:
    """Result of one workload run."""

    e2e: dict = field(default_factory=dict)  # END_TO_END name -> value
    layers: dict = field(default_factory=dict)  # PER_LAYER name -> value
    extra: dict = field(default_factory=dict)  # named figures kept in the record only
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    report: list = field(default_factory=list)  # lines printed before the result

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def self_time_table(table: dict, units: int, title: str) -> tuple[dict, list[str]]:
    """Per-unit self seconds of every reported layer, and its printed table."""
    total = sum(table["self"].values())
    per_unit = {layer: table["self"].get(layer, 0.0) / units for layer in REPORTED_LAYERS}
    lines = [f"{title} (self seconds per unit, {units} unit(s) traced)",
             f"  {'layer':28s} {'s/unit':>10s} {'share':>7s} {'calls/unit':>11s}"]
    for layer in REPORTED_LAYERS:
        seconds = table["self"].get(layer, 0.0)
        calls = table["calls"].get(layer, 0) / units
        share = seconds / total if total else 0.0
        lines.append(f"  {layer:28s} {seconds / units:10.5f} {share:7.1%} {calls:11.1f}")
    return per_unit, lines


def unattributed_frac(table: dict) -> float:
    total = sum(table["self"].values())
    return table["self"].get(ROOT_SPAN, 0.0) / total if total else 0.0


def phase_table(breakdown, host_seconds: dict, units: int) -> list[str]:
    """Modeled MP-2 phase seconds beside the measured host seconds (Table 2/4 shape)."""
    lines = [f"  {'phase':30s} {'modeled MP-2 s':>15s} {'host s':>10s} {'GE solves':>12s}"]
    for name, modeled, solves in breakdown:
        host = host_seconds.get(name)
        host_txt = f"{host:10.5f}" if host is not None else f"{'-':>10s}"
        lines.append(f"  {name:30s} {modeled / units:15.6f} {host_txt} {solves / units:12.0f}")
    return lines


#: Host layers that do the work of each MP-2 phase of the paper's Tables 2 and 4.
PHASE_LAYERS = {
    "Surface fit": ("core.prep.fit",),
    "Semi-fluid mapping": ("core.score_volume", "core.semifluid_map"),
    "Hypothesis matching": (
        "kernels.pointwise", "kernels.box_sum", "kernels.window_sums", "core.solve",
        "core.fields_self", "parallel.segment_merge",
    ),
}


def host_phase_seconds(per_unit: dict) -> dict:
    return {phase: sum(per_unit[layer] for layer in layers)
            for phase, layers in PHASE_LAYERS.items()}
