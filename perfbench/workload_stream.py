"""stream_frederic64: a live semi-fluid stream from a shared-memory ring.

A separate ingest process publishes a looped Frederic 64 px sequence
(semi-fluid model, search 2, template 3, fitted planes carried in the
ring) at a fixed cadence slower than the consumer;
``StreamingRunner.run_live`` consumes it over ``ring://`` in this
process.  It is the only workload that runs the bus, the semi-fluid
score volume and ``F_semi`` gathers, and prep-cache seeding from the
ring, and its pairs chain state.  Fits happen in the generator.

Lag of pair t is measured from the generator's stamp on frame t+1 to
the moment the consumer's ladder returns pair t's field.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import stats
from common import (PROBE_REF_S, ROOT_SPAN, Outcome, Speed, clock, host_phase_seconds,
                    phase_table, self_time_table, unattributed_frac)
from hygiene import Hygiene, peak_rss_mb
from ingest_proc import CADENCE, LOOP_FRAMES, source
from layers import BUS, SEARCH, install

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SEARCH_HALF_WIDTH = 2
TEMPLATE_HALF_WIDTH = 3
ATTACH_TIMEOUT = 120.0
#: Speed probes before and after each generator start.
PROBES = 3


def _spawn_generator(ctx, workdir: Path, name: str, frames: int, linger: float):
    out = workdir / f"{name}.json"
    argv = [sys.executable, str(HERE / "ingest_proc.py"), "--ring", name,
            "--seed", str(ctx.seed), "--frames", str(frames),
            "--linger", str(linger), "--out", str(out)]
    with open(workdir / f"{name}.log", "w") as log:
        proc = ctx.hygiene.spawn(argv, stdout=log, stderr=log)
    return proc, out


def _attach(name: str):
    """Attach to the ring and wait until frame 0 is readable."""
    from repro.bus import RingFrameSource

    src = RingFrameSource(name, attach_timeout=ATTACH_TIMEOUT, idle_timeout=60.0)
    deadline = clock() + ATTACH_TIMEOUT
    while src.ring.write_cursor < 1:
        if clock() > deadline:
            raise RuntimeError(f"ring {name!r}: no frame after {ATTACH_TIMEOUT}s")
        time.sleep(0.001)
    src.ring.read_frame(0)
    return src


class _Cycles:
    """Wraps the ring source: one cycle = wait for frame t+1, then pair t.

    Pairs run traced in alternating blocks of :data:`LOOP_FRAMES`, so the
    traced and the untraced pairs see the same frame contents.  Between
    cycles, while the consumer would wait for the next frame anyway, a
    host-speed probe runs (see ``common.Speed``).
    """

    def __init__(self, src, timer, trace: bool, speed: Speed) -> None:
        self.src = src
        self.timer = timer
        self.trace = trace
        self.speed = speed
        self.after_seq = -1
        self.pairs: list[dict] = []  # seq of frame t+1, emit wall time, service s, traced
        self.traced_cycles = 0
        self.unattributed = 0.0
        self._open = None
        self._traced = False

    @property
    def name(self):
        return self.src.name

    @property
    def missed(self):
        return self.src.missed

    def _close_cycle(self) -> None:
        if self._open is None:
            return
        started, self_before, pairs_before = self._open
        self._open = None
        if len(self.pairs) == pairs_before or not self.pairs[-1]["traced"]:
            return
        wall = clock() - started
        self.traced_cycles += 1
        self.unattributed += wall - (sum(self.timer.table()["self"].values()) - self_before)

    def frames(self):
        it = self.src.frames()
        while True:
            self._close_cycle()
            self.speed.probe()
            pair = len(self.pairs)
            self._traced = self.trace and (pair // LOOP_FRAMES) % 2 == 0
            self.timer.activate(self._traced)
            self._open = (clock(), sum(self.timer.table()["self"].values()), len(self.pairs))
            with self.timer.span("bus.wait"):
                bus_frame = next(it, None)
            if bus_frame is None:
                self.timer.activate(False)
                return
            self.after_seq = bus_frame.seq
            yield bus_frame

    def wrap_ladder(self, ladder) -> None:
        track_pair = ladder.track_pair

        def timed(*args, **kwargs):
            t0 = clock()
            result = track_pair(*args, **kwargs)
            self.pairs.append({"seq": self.after_seq, "emit": time.time(),
                               "service": clock() - t0,
                               "traced": self._traced})
            return result

        ladder.track_pair = timed


def run(ctx) -> Outcome:
    from repro.native import native_available
    from repro.reliability import StreamingRunner

    out = Outcome()
    timer = ctx.timer
    native_available()  # compile the kernel, if needed, before anything is timed
    workdir = ctx.hygiene.tmpdir("stream-")
    # A traced run needs a traced and an untraced block of pairs.
    frames = max(int(ctx.seconds / CADENCE) + 1, 2 * LOOP_FRAMES + 1 if ctx.trace else 2)
    tag = f"pb{os.getpid()}"

    setup_speed, speed = Speed(), Speed()
    setups = []
    for k in range(SETUP_REPEATS - 1):
        setup_speed.probe(PROBES)
        t0 = clock()
        proc, _ = _spawn_generator(ctx, workdir, f"{tag}s{k}", frames=1, linger=ATTACH_TIMEOUT)
        _attach(f"{tag}s{k}").close()
        setups.append(clock() - t0)
        Hygiene.stop(proc)
    setup_speed.probe(PROBES)

    if ctx.trace:
        install(timer, ctx.patcher, SEARCH + BUS)
    name = f"{tag}run"
    t0 = clock()
    proc, stamps_path = _spawn_generator(ctx, workdir, name, frames=frames, linger=0.0)
    src = _attach(name)
    setups.append(clock() - t0)
    setup_speed.probe(PROBES)

    sequence = source(ctx.seed, 2)
    pixel_km = sequence.pixel_km
    config = sequence.config.replace(n_zs=SEARCH_HALF_WIDTH, n_zt=TEMPLATE_HALF_WIDTH)
    runner = StreamingRunner(config, pixel_km=pixel_km)
    cycles = _Cycles(src, timer, ctx.trace, speed)
    cycles.wrap_ladder(runner.ladder)
    try:
        live = runner.run_live(cycles)
    finally:
        src.close()
    rss = peak_rss_mb()
    code = Hygiene.stop(proc)
    out.check("ingest process exited 0", code == 0, f"exit code {code}")
    generator = json.loads(stamps_path.read_text())

    published = generator["published"]
    missed, torn = src.missed, src.torn
    out.attempted = published
    out.failed = missed + torn
    out.check("no frame missed or torn", out.failed == 0, f"{missed} missed, {torn} torn")

    frames_list = [f for _, f in source(ctx.seed, published).frames()]
    reference = StreamingRunner(config, pixel_km=pixel_km, workers=2).run(frames_list)
    same = all(getattr(live.field, k).tobytes() == getattr(reference.field, k).tobytes()
               for k in ("u", "v", "error"))
    out.check("ring-fed mean field bit-identical to StreamingRunner.run",
              same and live.pairs_done == reference.pairs_done,
              f"{live.pairs_done} live pairs, {reference.pairs_done} batch pairs")

    stamps = generator["stamps"]
    raw_lag = [p["emit"] - stamps[p["seq"]] for p in cycles.pairs]
    lag = [s * speed.factor() for s in raw_lag]
    raw_service = [p["service"] for p in cycles.pairs]
    gaps = [b - a - CADENCE for a, b in zip(stamps, stamps[1:])]
    late_max = max(gaps) if gaps else 0.0
    out.e2e = {
        "setup_s": stats.median(setups) * setup_speed.factor(),
        "peak_rss_mb": rss,
        "main_p50_s": stats.median(lag),
        "alt_p50_s": stats.median(raw_service) * speed.factor(),
    }
    out.extra = {
        "lag_p50_s": out.e2e["main_p50_s"], "service_p50_s": out.e2e["alt_p50_s"],
        "missed_frac": out.failed / max(1, published), "loadgen.late_max_s": late_max,
        "bus.publish_s": stats.median(generator["publish_seconds"]),
        "raw.lag_p50_s": stats.median(raw_lag), "raw.service_p50_s": stats.median(raw_service),
        "raw.setup_s": stats.median(setups), "probe_p50_s": speed.median(),
        "setup_probe_p50_s": setup_speed.median(),
        "setup_samples": setups, "setup_spread": stats.spread(setups), "lag": lag,
    }
    t = stats.tail(lag)
    line = (f"stream_frederic64: {published} frames at {CADENCE:g} s cadence, "
            f"{len(lag)} pairs; lag p50 {out.e2e['main_p50_s']:.4f} s")
    if t is not None:
        out.extra["lag_tail_s"] = {"value": t[0], "percentile": t[1], "n": t[2]}
        line += f", tail p{t[1]:.1f} {t[0]:.4f} s"
    out.report.append(line + f"; generator late max {late_max:.4f} s, "
                      f"publish median {out.extra['bus.publish_s']:.5f} s; setup median "
                      f"{out.e2e['setup_s']:.4f} s over {len(setups)} "
                      f"(quartile spread {out.extra['setup_spread']:.3f}), "
                      f"at reference speed")
    out.report.append(
        f"  raw: lag p50 {out.extra['raw.lag_p50_s']:.4f} s, service p50 "
        f"{out.extra['raw.service_p50_s']:.4f} s, setup {out.extra['raw.setup_s']:.4f} s; "
        f"speed probe median {speed.median():.5f} s, in set-up {setup_speed.median():.5f} s "
        f"(reference {PROBE_REF_S} s)")
    if ctx.trace:
        _traced_layers(out, cycles, live, timer)
    return out


def _traced_layers(out, cycles, live, timer) -> None:
    table = timer.table()
    table["self"][ROOT_SPAN] += cycles.unattributed
    units = cycles.traced_cycles
    per_unit, lines = self_time_table(table, units, "stream pair (wait for frame + pair)")
    out.report += lines
    breakdown = live.ledger.breakdown(with_counts=True)
    out.report.append("modeled MP-2 phases vs measured host seconds, per pair")
    out.report += phase_table(breakdown, host_phase_seconds(per_unit), live.pairs_done)
    service = {True: [], False: []}
    for p in cycles.pairs:
        service[p["traced"]].append(p["service"])
    out.extra["layer_self_s"] = per_unit
    fits = table["calls"]["core.prep.fit"]
    out.check("consumer fitted no frame (fitted planes came from the ring)", fits == 0,
              f"{fits} fit(s)")
    unattributed = unattributed_frac(table)
    out.check("trace.unattributed_frac <= 5%", unattributed <= 0.05, f"{unattributed:.6f}")
    out.layers = {
        "kernels.pointwise_s": per_unit["kernels.pointwise"],
        "kernels.box_sum_s": per_unit["kernels.box_sum"],
        "kernels.box_sum_calls": table["calls"]["kernels.box_sum"] / units,
        "core.solve_s": per_unit["core.solve"],
        "core.ge_solves": table["counts"]["core.ge_solves"] / units,
        "trace.unattributed_frac": unattributed,
        "trace.overhead_frac": stats.median(service[True]) / stats.median(service[False]) - 1.0,
    }
