"""Smoke test of the benchmark itself: every workload once at tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    assert detail["failed_frac"] == {"value": 0.0, "unit": "ratio", "failed": 0,
                                     "attempted": result["attempted"]}
    if workload == "exponent-search":
        assert detail["closed_form_gap"]["unit"] == "nats"
        assert detail["closed_form_gap"]["value"] <= detail["closed_form_gap"]["tolerance"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    if trace:
        # the layers' self times plus the driver's own time make up the traced batch time
        layers = sum(v["value"] for k, v in metrics.items() if k.startswith("layer."))
        total = layers + metrics["driver.self_s"]["value"]
        assert total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_tracer_wraps_every_namespace_and_restores_it():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import detpower
        from detpower import cli, core, finite, optimize
        from tracer import Tracer

        originals = (core.eig_hermitian, optimize.chernoff_exponent, core.DensityMatrix.__post_init__)
        tracer = Tracer()
        tracer.install()
        try:
            # eig_hermitian is bound by name in core, cli, finite, optimize and the package
            for ns in (core, cli, finite, optimize, detpower):
                assert ns.eig_hermitian is not originals[0]
            assert optimize.chernoff_exponent is not originals[1]
            detpower.DensityMatrix.pure([1.0, 0.0])
        finally:
            tracer.uninstall()
        assert (core.eig_hermitian, optimize.chernoff_exponent, core.DensityMatrix.__post_init__) == originals
        assert all(ns.eig_hermitian is originals[0] for ns in (cli, finite, optimize, detpower))
        names = [span[0] for span in tracer.spans]
        assert names == ["core.DensityMatrix", "core.eig_hermitian"]
        assert tracer.spans[1][3] == 0  # eig_hermitian ran inside the DensityMatrix check
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/ present it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
