"""Smoke test of the benchmark itself, at the tiny workload size.

    python3 -m pytest benchmark/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("suite", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_interaction_map_covers_every_workload_and_metric():
    doc = json.loads((HERE / "interactions.json").read_text())
    assert sorted(doc["workloads"]) == sorted(WORKLOAD_NAMES)
    mapped = [m for layer in doc["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.fixture
def tiny_run(monkeypatch):
    """run_one on moyal-qd at the tiny size, in this process."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    def go():
        return run.run_one(run.parse_args(
            ["--workload", "moyal-qd", "--seed", "3", "--seconds", "0.1",
             "--trace", "0", "--size", "tiny"]))

    return go


def test_wrong_value_raises_failed_share(tiny_run, monkeypatch):
    import ncpain.quasidet
    oracle = ncpain.quasidet.quasideterminant_oracle
    monkeypatch.setattr(ncpain.quasidet, "quasideterminant_oracle",
                        lambda a, i, j: oracle(a, i, j) + 1e-6)
    record = tiny_run()
    assert record["failed_share"] > 0
    assert record["metrics"]["passed_share"]["value"] < 1
    assert all(f.startswith("quasideterminant_oracle: |direct - oracle|")
               for f in record["failures"])


def test_nondeterministic_output_raises_failed_share(tiny_run, monkeypatch):
    import ncpain.moyal
    star = ncpain.moyal.star_product
    calls = []

    def drifting(f, g):
        calls.append(1)
        return star(f, g) * (1 + 1e-15 * len(calls))

    monkeypatch.setattr(ncpain.moyal, "star_product", drifting)
    record = tiny_run()
    assert record["failed_share"] > 0
    assert any("differs from the first pass" in f
               for f in record["failures"])


def test_self_times_partition_the_traced_time(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import numpy as np
    import ncpain.quasidet
    from ncpain.ring import random_invertible
    from tracing import Tracer

    rng = np.random.default_rng(0)
    matrix = ncpain.quasidet.BlockMatrix(
        [[random_invertible(rng, 2) for _ in range(4)] for _ in range(4)])
    tracer = Tracer()
    tracer.install()
    try:
        ncpain.quasidet.quasideterminant_oracle(matrix, 0, 0)
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in roots] == ["quasidet.quasideterminant_oracle"]
    table = tracer.span_table()
    assert table["quasidet.block_inverse"]["calls"] > 1
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(roots[0][4] - roots[0][3], rel=1e-9)
    assert ncpain.quasidet.block_inverse.__module__ == "ncpain.quasidet"
    assert not hasattr(ncpain.quasidet.block_inverse, "__wrapped__")


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run_benchmark("suite", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.invocations"] == 5
    assert counts[0]["ring.mul_calls"] > 0


def test_normalized_time_follows_work_not_host_speed(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import calibration

    kernel = calibration.REFERENCE_S
    sampler = calibration.Sampler()
    # Samples every 0.1 s over [0, 4): reference speed on [0, 2), half
    # speed on [2, 4), where the kernel takes twice as long.
    sampler.samples = [(0.1 * i, kernel * (1 if i < 20 else 2))
                       for i in range(40)]
    fast, slow = sampler.normalized([(0.5, 1.5), (2.5, 3.5)])
    assert fast == pytest.approx(1.0 - 10 * kernel, rel=1e-9)
    assert slow == pytest.approx((1.0 - 20 * kernel) / 2, rel=1e-9)
