#!/usr/bin/env python3
"""Compare benchmark records: per-metric deltas and layer regressions.

    python3 perfbench/compare.py [RECORDS] [--base BASE_RECORDS]

For each workload and mode (untraced, traced), the newest record in
``RECORDS`` (default ``.perfbench/records.jsonl``) is compared with the
newest earlier record of the same workload and mode from the same host
-- taken from ``BASE_RECORDS`` when given, for example the records of a
parent commit.  Records whose host blocks differ are never compared:
when no earlier record shares the host block, the comparison is refused
and the differing keys are printed.  Every metric's delta is printed; a layer
self time more than 10% slower than the previous record is flagged.

Exit status: 0 no flags, 1 a layer was flagged, 2 a comparison was
refused or nothing could be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_RECORDS = HERE.parent / ".perfbench" / "records.jsonl"

#: A layer self time this much slower than the previous record is flagged.
SLOWER = 0.10


def load(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _key(record: dict) -> tuple[str, bool]:
    return record["workload"], record["trace"]


def host_diff(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)!r} -> {b.get(k)!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def _delta_lines(old: dict, new: dict, flag_slower: bool) -> tuple[list[str], list[str]]:
    lines, flags = [], []
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        change = (b - a) / a if a else float("inf") if b else 0.0
        mark = ""
        if flag_slower and name.endswith("_s") and a > 0 and change > SLOWER:
            mark = f"  <-- {change:+.1%} slower"
            flags.append(name)
        lines.append(f"  {name:32s} {a:14.6g} -> {b:14.6g} ({change:+.1%}){mark}")
    return lines, flags


def pairs(records: list[dict], base: list[dict] | None):
    """``(key, earlier records of the key, newest record)`` per workload and mode."""
    newest = {}
    for index, record in enumerate(records):
        newest[_key(record)] = index
    for key, index in sorted(newest.items()):
        pool = base if base is not None else records[:index]
        yield key, [r for r in pool if _key(r) == key], records[index]


def compare(records: list[dict], base: list[dict] | None = None, out=print) -> int:
    compared = 0
    flagged = refused = False
    for (workload, trace), earlier, new in pairs(records, base):
        mode = "traced" if trace else "untraced"
        same_host = [r for r in earlier if not host_diff(r["host"], new["host"])]
        if not same_host:
            if earlier:
                diff = host_diff(earlier[-1]["host"], new["host"])
                out(f"{workload} ({mode}): REFUSED, host block differs: " + "; ".join(diff))
                refused = True
            else:
                out(f"{workload} ({mode}): no earlier record to compare with")
            continue
        old = same_host[-1]
        compared += 1
        out(f"{workload} ({mode}): {old['provenance']} -> {new['provenance']}")
        lines, _ = _delta_lines(old["e2e"], new["e2e"], flag_slower=False)
        out("\n".join(lines))
        layer_old = {f"{k}_s": v for k, v in old["extra"].get("layer_self_s", {}).items()}
        layer_new = {f"{k}_s": v for k, v in new["extra"].get("layer_self_s", {}).items()}
        for layer, record in ((layer_old, old), (layer_new, new)):
            layer.update(record["extra"].get("layer_counts", {}))
            layer.update(record["layers"])
        lines, flags = _delta_lines(layer_old, layer_new, flag_slower=True)
        if lines:
            out("\n".join(lines))
        if flags:
            flagged = True
            out(f"  flagged: {', '.join(flags)}")
    if refused or not compared:
        return 2
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="?", type=Path, default=DEFAULT_RECORDS)
    parser.add_argument("--base", type=Path, default=None,
                        help="records to compare against (default: earlier records in RECORDS)")
    args = parser.parse_args(argv)
    base = load(args.base) if args.base is not None else None
    return compare(load(args.records), base)


if __name__ == "__main__":
    sys.exit(main())
