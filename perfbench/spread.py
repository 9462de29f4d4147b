"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads class-grid,probe --seeds 1-10 \
        [--trace 0] [--json perfbench/results/BENCH_baseline.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints per
metric the median and the quartile spread: (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  With ``--json`` it also
writes every run's result and the per-metric summary to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write runs and summary to this file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            digest = next((line.split()[-1] for line in proc.stdout.splitlines()
                           if line.startswith("report sha256")), None)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
            ok = ok and proc.returncode == 0 and bool(result and result["correct"])
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "wall_s": wall, "digest": digest, "result": result})
            for name, metric in (result or {}).get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: exit {proc.returncode}, {wall:.1f} s wall", flush=True)
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(xs)}
            print(f"  {name:36} median {med:12.6g}  spread {spread:.4f}", flush=True)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
