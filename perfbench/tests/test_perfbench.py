"""Self-check of the benchmark at its smallest size (k=1, an 8-equation
corpus): every named metric is reported with its unit, no job fails, and
the references hold. It sets no wall-clock thresholds.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_run(workload: str, trace: int) -> tuple[dict, dict]:
    return run.run(workload, seed=7, seconds=0.2, trace=trace, k=1, corpus_size=8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = small_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_ratio"] == 0
    assert report["env"]["nproc"] >= 1 and report["env"]["python"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(workload):
    first, _ = small_run(workload, 1)
    second, _ = small_run(workload, 1)
    assert {name: m["unit"] for name, m in first["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["failed"] == 0 and second["failed"] == 0
    for counter in ("rdf.lookup.calls", "rdf.add.calls"):
        assert first["metrics"][counter]["value"] == second["metrics"][counter]["value"]
    lookups = first["metrics"]["rdf.lookup.calls"]["value"]
    assert lookups == 0 if workload == "publish_corpus" else lookups > 0


def test_k1_build_equals_golden(tmp_path):
    fixture = inputs.load_fixture(run.FIXTURE)
    assert inputs.reference_ntriples(fixture, 1) == fixture.golden
    assert [len(rows) for rows in inputs.expected_query_rows(fixture.golden)] == [3, 2, 22]
    sys.path.insert(0, str(run.ROOT / "src"))
    from cpskg import cli

    out = tmp_path / "g.nt"
    manifest = inputs.write_scaled_model(fixture, 1, tmp_path / "model")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_bytes() == (run.FIXTURE / "golden.nt").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "build_scaled", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
