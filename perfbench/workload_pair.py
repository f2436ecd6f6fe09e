"""pair_luis128: one Luis 128 px pair through ``track_dense``.

The pair is prepared once; each iteration then runs the exhaustive and
the pruned schedule on the same prepared frames, alternating which goes
first.  It is the only workload on the batched engine and the only one
that prunes with certificates, so both schedules are timed: a change
that helps one and slows the other shows.
"""

from __future__ import annotations

import stats
from common import (PROBE_REF_S, ROOT_SPAN, Outcome, Speed, clock, self_time_table,
                    unattributed_frac)
from hygiene import peak_rss_mb
from layers import DATA, SEARCH, install
from selftime import merge_tables

SIZE = 128
#: ~20-35 ms each; 41 span about a second, so their median covers more
#: than one of the host's speed plateaus (see README.md, Steadiness).
SETUP_REPEATS = 41
SCHEDULES = ("exhaustive", "pruned")
#: Speed probes before each track_dense call.
PROBES = 3


def _setup(seed: int):
    """Dataset generation, native-kernel load and the pair's preparation."""
    from repro import native
    from repro.core.matching import prepare_frames
    from repro.data import datasets

    native.reset()
    native.native_available()
    ds = datasets.hurricane_luis(size=SIZE, n_frames=2, seed=seed)
    return prepare_frames(ds.frames[0].surface, ds.frames[1].surface, ds.config)


def run(ctx) -> Outcome:
    from repro import native
    from repro.core import matching
    from repro.kernels.digest import result_digest
    from repro.obs.metrics import METRICS

    out = Outcome()
    timer = ctx.timer
    native.native_available()  # compile the kernel, if needed, before timing set-up
    if ctx.trace:
        install(timer, ctx.patcher, SEARCH + DATA)

    setup_speed, speed = Speed(), Speed()
    setups, setup_tables = [], []
    for _ in range(SETUP_REPEATS):
        setup_speed.probe()
        t0 = clock()
        if ctx.trace:
            with timer.collect() as table, timer.span(ROOT_SPAN):
                prepared = _setup(ctx.seed)
            setup_tables.append(table)
        else:
            prepared = _setup(ctx.seed)
        setups.append(clock() - t0)
    setup_speed.probe()

    samples = {mode: [] for mode in SCHEDULES}
    tables = {mode: [] for mode in SCHEDULES}
    iteration_walls = {True: [], False: []}
    digests: list[tuple[str, str]] = []
    cert_solves = pruned_frac = 0.0
    min_iterations = 2 if ctx.trace else 1
    start = clock()
    i = 0
    while True:
        traced = ctx.trace and i % 2 == 0
        wall = 0.0
        for mode in SCHEDULES if i % 2 == 0 else SCHEDULES[::-1]:
            certs_before = METRICS.counter("search.certificate_solves")
            speed.probe(PROBES)
            t0 = clock()
            if traced:
                with timer.collect() as table, timer.span(ROOT_SPAN):
                    result = matching.track_dense(prepared, search=mode)
                tables[mode].append(table)
            else:
                result = matching.track_dense(prepared, search=mode)
            seconds = clock() - t0
            samples[mode].append(seconds)
            wall += seconds
            digests.append((mode, result_digest(result)))
            if mode == "pruned":
                cert_solves = METRICS.counter("search.certificate_solves") - certs_before
                h, w = result.shape
                pruned_frac = result.hypotheses_pruned / (h * w * result.hypotheses_evaluated)
        iteration_walls[traced].append(wall)
        i += 1
        elapsed = clock() - start
        if i >= min_iterations and elapsed + elapsed / i > ctx.seconds:
            break
    speed.probe(PROBES)

    reference = digests[0][1]
    out.attempted = len(digests)
    out.failed = sum(1 for _, d in digests if d != reference)
    out.check("pruned and exhaustive u/v/params/error digests equal", out.failed == 0,
              f"{len(set(d for _, d in digests))} distinct digest(s) over {len(digests)} runs")
    out.check("pruning skipped solves", pruned_frac > 0, f"pruned_frac={pruned_frac:.4f}")

    out.e2e = {
        "setup_s": stats.median(setups) * setup_speed.factor(),
        "peak_rss_mb": peak_rss_mb(),
        "main_p50_s": stats.median(samples["exhaustive"]) * speed.factor(),
        "alt_p50_s": stats.median(samples["pruned"]) * speed.factor(),
    }
    out.extra = {
        "pair_exhaustive_s": out.e2e["main_p50_s"],
        "pair_pruned_s": out.e2e["alt_p50_s"],
        "raw.pair_exhaustive_s": stats.median(samples["exhaustive"]),
        "raw.pair_pruned_s": stats.median(samples["pruned"]),
        "raw.setup_s": stats.median(setups),
        "probe_p50_s": speed.median(), "setup_probe_p50_s": setup_speed.median(),
        "samples": samples,
        "setup_samples": setups,
        "setup_spread": stats.spread(setups),
    }
    out.report.append(
        f"pair_luis128: {i} iteration(s); at reference speed: exhaustive median "
        f"{out.e2e['main_p50_s']:.4f} s, pruned median {out.e2e['alt_p50_s']:.4f} s, "
        f"setup median {out.e2e['setup_s']:.4f} s over {len(setups)} "
        f"(quartile spread {out.extra['setup_spread']:.3f})"
    )
    out.report.append(
        f"  raw: exhaustive {out.extra['raw.pair_exhaustive_s']:.4f} s, pruned "
        f"{out.extra['raw.pair_pruned_s']:.4f} s, setup {out.extra['raw.setup_s']:.4f} s; "
        f"speed probe median {speed.median():.5f} s, in set-up {setup_speed.median():.5f} s "
        f"(reference {PROBE_REF_S} s)"
    )
    if not ctx.trace:
        return out

    units = len(iteration_walls[True])
    table = merge_tables(tables["exhaustive"] + tables["pruned"])
    per_unit, lines = self_time_table(table, units, "pair iteration (exhaustive + pruned)")
    out.report += lines
    for mode in SCHEDULES:
        out.report += self_time_table(merge_tables(tables[mode]), units, f"  {mode} only")[1]
    setup_table = merge_tables(setup_tables)
    out.report += self_time_table(setup_table, len(setup_tables), "set-up")[1]
    # The root span wraps track_dense alone, whose self time is core.merge
    # (the argmin/merge left over between the leaf layers), so little
    # beyond the wrapper's own bookkeeping can be left unattributed here.
    unattributed = unattributed_frac(table)
    merge_share = table["self"].get("core.merge", 0.0) / sum(table["self"].values())
    out.check("trace.unattributed_frac <= 5%", unattributed <= 0.05,
              f"{unattributed:.6f}; core.merge (track_dense self) is {merge_share:.1%}")
    counts = {
        "core.prep.fits": setup_table["calls"]["core.prep.fit"] / len(setup_tables),
        "search.cert_solves": cert_solves,
        "search.pruned_frac": pruned_frac,
    }
    out.report.append("per pair: " + ", ".join(f"{k} {v:g}" for k, v in counts.items()))
    out.layers = {
        "kernels.pointwise_s": per_unit["kernels.pointwise"],
        "kernels.box_sum_s": per_unit["kernels.box_sum"],
        "kernels.box_sum_calls": table["calls"]["kernels.box_sum"] / units,
        "core.solve_s": per_unit["core.solve"],
        "core.ge_solves": table["counts"]["core.ge_solves"] / units,
        "trace.unattributed_frac": unattributed,
        "trace.overhead_frac": (
            stats.median(iteration_walls[True]) / stats.median(iteration_walls[False]) - 1.0
        ),
    }
    out.extra["layer_self_s"] = per_unit
    out.extra["layer_counts"] = counts
    return out
