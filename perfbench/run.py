"""wkstab benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload class-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` as it is, with nothing installed.  One process runs one workload as a
closed loop with one caller: it repeats whole passes over the seeded instance
list for about ``--seconds`` (the whole number of passes that ends closest to
it, at least one), so every measured op mix is the same.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
fixed CPU speed measured alongside by a calibration kernel (``speed.py``), so
that other tenants of a shared CPU do not move them; raw wall times are
printed too.  Traced times are scaled per op by the kernel runs around it.  ``--trace 1`` runs an untraced,
a traced and another untraced pass of the same instances and prints the
per-layer metrics of the traced pass, plus the tracing overhead (traced minus
untraced pass time, as a share of the untraced time).

Correctness checks run outside the timed region.  Every op that raises,
exits 1, returns report bytes that differ between passes, or fails a check
counts in ``failed``.  The last stdout line is the JSON result; the exit code
is 1 when any op or check failed and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    # internal: one cold set-up (import + generation), timed by the parent
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _load(name: str):
    """Import the library from the checkout; return the named workload."""
    for need in (ROOT / "src" / "wkstab" / "__init__.py", ROOT / "tests" / "_frozen.py"):
        if not need.is_file():
            print(f"perfbench: {need} is missing; run from a wkstab source checkout",
                  file=sys.stderr)
            raise SystemExit(2)
    if name not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {name!r} (choose from {sorted(workloads.WORKLOADS)})",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import wkstab  # noqa: F401  (part of the measured set-up)

    return workloads.WORKLOADS[name]


def _setup_seconds(args) -> tuple[float, float]:
    """Median time from process start to the first op over cold child
    processes that import the library and generate the inputs: scaled to
    the reference speed by kernel runs at the child's start and end, and raw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().split()
            wall = time.perf_counter() - start
            kernels = proc.stdout.read().split()
            code = proc.wait(timeout=60)
        if code != 0 or ready[:1] != ["ready"] or len(ready) != 2 or len(kernels) != 1:
            sys.exit(f"perfbench: set-up child failed (exit {code})")
        k_start, k_end = float(ready[1]), float(kernels[0])
        raw.append(wall - k_start)
        scaled.append((wall - k_start) * speed.REFERENCE_S / ((k_start + k_end) / 2))
    return statistics.median(scaled), statistics.median(raw)


class Loop:
    """Closed-loop runner: whole passes over one instance list.

    With a ``speed`` probe every step (the workload's per-pass set-up, then
    each op) is timed in scaled seconds (see ``speed.py``) and ``factors``
    maps the op's tracer id (None for the last pass set-up) to its scale
    factor; without one, steps are timed in wall seconds.
    """

    def __init__(self, workload, instances, tracer=None, speed=None):
        self.workload = workload
        self.instances = instances
        self.tracer = tracer
        self.speed = speed
        self.first: list = []  # outcomes of the first pass
        self.setup_times: list[float] = []  # one per pass
        self.op_times: list[float] = []  # one per op run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes = 0
        self.elapsed = 0.0
        self.factors: dict = {}

    def _timed(self, fn, op_id):
        if self.speed is not None:
            result, seconds = self.speed.timed(fn)
            self.factors[op_id] = self.speed.last_factor
            return result, seconds
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def _attempt(self, inst, state):
        try:
            return self.workload.run(inst, state)
        except (Exception, SystemExit) as exc:  # recorded, never fatal
            return workloads.Outcome(f"raised {exc!r}\n".encode(), False, repr(exc))

    def run(self, seconds: float, max_passes: int | None = None) -> "Loop":
        clock = time.perf_counter
        start = clock()
        done = 0
        while True:
            if self.tracer is not None:
                self.tracer.op_id = None
            state, t = self._timed(lambda: self.workload.begin_pass(self.instances), None)
            self.setup_times.append(t)
            for i, inst in enumerate(self.instances):
                if self.tracer is not None:
                    self.tracer.op_id = self.attempted
                out, t = self._timed(lambda: self._attempt(inst, state), self.attempted)
                self.op_times.append(t)
                self.attempted += 1
                if self.passes == 0:
                    self.first.append(out)
                elif out.report != self.first[i].report:
                    out.error = out.error or f"report of op {i} differs between passes"
                if out.error:
                    self.failed += 1
                    self.errors.append(out.error)
            self.passes += 1
            done += 1
            if max_passes is not None and self.passes >= max_passes:
                break
            # stop where the run ends closest to --seconds, after whole passes
            spent = clock() - start
            if spent + spent / done / 2 >= seconds:
                break
        self.elapsed = clock() - start
        return self

    @property
    def pass_seconds(self) -> float:
        """Mean time of one pass, set-up included: the time to solution."""
        return (sum(self.setup_times) + sum(self.op_times)) / self.passes


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _emit(correct, attempted, failed, metrics, units, lines):
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    k_start = speed.kernel() if args.setup_only else None
    wl = _load(args.workload)
    instances = wl.generate(args.seed)
    if args.setup_only:
        print("ready", k_start, flush=True)
        print(speed.kernel(), flush=True)
        return 0
    if args.seconds is None or args.trace is None:
        print("perfbench: --seconds and --trace are required", file=sys.stderr)
        return 2

    lines = [f"workload {wl.name}, seed {args.seed}, {len(instances)} instances per pass"]
    if args.trace == 0:
        setup_s, setup_raw_s = _setup_seconds(args)
        with speed.SpeedProbe() as probe:
            loop = Loop(wl, instances, speed=probe).run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loops = [loop]
        raw_pass_s = probe.raw_seconds / loop.passes
        lines.append(f"raw wall times: pass {raw_pass_s:.3f} s (scaled {loop.pass_seconds:.3f} s), "
                     f"setup {setup_raw_s:.4f} s (scaled {setup_s:.4f} s)")
    else:
        # untraced passes before and after the traced one; no sampling timer,
        # whose kernel runs would land inside spans
        probe = speed.SpeedProbe()
        plain = Loop(wl, instances, speed=probe).run(0, max_passes=1)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = Loop(wl, instances, tr, speed=probe).run(0, max_passes=1)
        finally:
            tr.uninstall()
        plain.run(0, max_passes=2)
        loops = [plain, traced]
        loop = traced

    check_fails = wl.check(instances, loop.first)
    digests = [workloads.digest(lp.first) for lp in loops]
    if len(set(digests)) != 1:
        check_fails.append(f"traced and untraced report digests differ: {digests}")
    attempted = sum(lp.attempted for lp in loops)
    failed = min(attempted, sum(lp.failed for lp in loops) + len(check_fails))
    lines.append(f"report sha256 {digests[0]}")
    lines.append(f"passes {loop.passes}, ops {loop.attempted}, elapsed {loop.elapsed:.3f} s")
    lines.append(f"error_share = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    lines += [f"FAIL {msg}" for msg in (sum((lp.errors for lp in loops), []) + check_fails)[:20]]

    if args.trace == 0:
        decided = sum(out.decided for out in loop.first)
        ms = [1000 * t for t in loop.op_times]
        metrics = {
            "ops_per_s": len(instances) / loop.pass_seconds,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": _percentile(ms, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "decided_share": decided / len(loop.first),
        }
        units = END_TO_END_UNITS
    else:
        metrics = tr.summary(traced.factors)
        metrics["trace.overhead_share"] = traced.pass_seconds / plain.pass_seconds - 1
        metrics["trace.spans"] = len(tr.spans)
        units = {k: _unit(k) for k in metrics}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            tr.write_spans(fh)
        lines.append(f"untraced pass {plain.pass_seconds:.3f} s, traced pass {traced.pass_seconds:.3f} s; "
                     f"{len(tr.spans)} spans written to {spans_path.relative_to(ROOT)}")

    _emit(not failed, attempted, failed, metrics, units, lines)
    return 0 if not failed else 1


def _unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith(("_share", "_ratio", "_yield", ".share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
