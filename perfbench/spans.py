"""Summarise a span file written by ``run.py --trace 1``.

    python3 perfbench/spans.py perfbench/out/spans-probe-seed1.jsonl.gz

Prints one row per traced function: calls, inclusive time of the first call,
median and mean inclusive time per call, and total self time (inclusive time
minus the time of traced children).
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys


def summarise(lines) -> dict:
    spans = [json.loads(line) for line in lines]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    rows: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = rows.setdefault(s["name"], {"durations": [], "self": 0.0})
        row["durations"].append(dur)
        row["self"] += dur - child_time[s["id"]]
    return rows


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        with gzip.open(path, "rt") as fh:
            rows = summarise(fh)
        print(path)
        print(f"{'function':40} {'calls':>7} {'first ms':>10} {'median ms':>10} "
              f"{'mean ms':>10} {'self ms':>10}")
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
            d = row["durations"]
            print(f"{name:40} {len(d):7d} {1000 * d[0]:10.2f} "
                  f"{1000 * statistics.median(d):10.2f} {1000 * statistics.fmean(d):10.2f} "
                  f"{1000 * row['self']:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
