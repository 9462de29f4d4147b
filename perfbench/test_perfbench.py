"""Tests of the benchmark itself (not of wkstab).

    python3 -m pytest perfbench -q

Tiny instance subsets keep every workload's smoke run to a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import wkstab  # noqa: E402
from wkstab import cli, futaki, stability  # noqa: E402

probe_module = sys.modules["wkstab.probe"]


def _tiny(name):
    instances = workloads.WORKLOADS[name].generate(0)
    if name == "class-grid":
        return instances[:3] + instances[-2:]
    if name == "threshold":
        return instances[:1]  # the c07b s=24 template, checked against tests/_frozen.py
    if name == "certify":
        return [c for c in instances if c.fiber == "square"][:2] + instances[:1]
    return [c for c in instances if c.fiber == "interval"]


def _pass(name, instances, trace=None):
    wl = workloads.WORKLOADS[name]
    loop = run.Loop(wl, instances, trace).run(0, max_passes=1)
    return loop, wl.check(instances, loop.first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct(name):
    loop, fails = _pass(name, _tiny(name))
    assert loop.failed == 0, loop.errors
    assert fails == []
    assert len(loop.first) == len(loop.op_times) == loop.attempted > 0


def test_generation_is_seeded():
    for wl in workloads.WORKLOADS.values():
        assert wl.generate(7) == wl.generate(7)
        assert wl.generate(7) != wl.generate(8)


def test_uninstall_restores_every_binding():
    originals = {
        "futaki.integrate": futaki.integrate,
        "probe.clip": probe_module.clip,
        "stability.certify_nonnegative": stability.certify_nonnegative,
        "wkstab.probe": wkstab.probe,
        "sweep runner": cli._SWEEP_RUNNERS["check-fano"],
        "compose_affine": wkstab.Polynomial.__dict__["compose_affine"],
    }
    tr = tracer.Tracer()
    tr.install()
    try:
        patches = tr.patches
        assert futaki.integrate is not originals["futaki.integrate"]
        assert probe_module.clip is not originals["probe.clip"]
        assert stability.certify_nonnegative is not originals["stability.certify_nonnegative"]
        assert wkstab.probe is not originals["wkstab.probe"]
        assert cli._SWEEP_RUNNERS["check-fano"] is not originals["sweep runner"]
        assert wkstab.Polynomial.__dict__["compose_affine"] is not originals["compose_affine"]
    finally:
        tr.uninstall()
    for owner, key, original, is_dict in patches:
        current = owner[key] if is_dict else owner.__dict__[key]
        assert current is original, key
    assert futaki.integrate is originals["futaki.integrate"]
    assert probe_module.clip is originals["probe.clip"]
    assert stability.certify_nonnegative is originals["stability.certify_nonnegative"]
    assert wkstab.probe is originals["wkstab.probe"]
    assert cli._SWEEP_RUNNERS["check-fano"] is originals["sweep runner"]
    assert wkstab.Polynomial.__dict__["compose_affine"] is originals["compose_affine"]


@pytest.mark.parametrize("name", ["certify", "probe"])
def test_traced_and_untraced_digests_agree(name):
    instances = _tiny(name)
    plain, _ = _pass(name, instances)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced, fails = _pass(name, instances, tr)
    finally:
        tr.uninstall()
    assert fails == [] and traced.failed == 0
    assert workloads.digest(plain.first) == workloads.digest(traced.first)
    summary = tr.summary()
    if name == "certify":
        assert summary["bernstein.certify_nonnegative.calls"] > 0
        assert summary["cli.main.calls"] == len(instances)
    else:
        assert summary["probe.probe.calls"] == len(instances)
        assert summary["probe.creases"] > 0
        assert summary["probe.moment_lookups"] > summary["probe.moments_computed"] > 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(spec["paths"]) == {HERE.name}
    layer_names = set(tracer.Tracer().summary()) | {"trace.overhead_share", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "class-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
