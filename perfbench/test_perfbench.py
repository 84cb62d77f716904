"""Tests of the benchmark itself, at the smoke size.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "smoke", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    code, lines = bench("--workload", workload, "--seed", "5")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(lines[-2])["report"]
    assert report["golden"]["match"] and report["fail_ratio"] == 0
    assert report["conditions"]["nproc"] >= 1 and "cas not measured" in report["conditions"]["note"]


@pytest.mark.parametrize("workload, per_radicand", [("scan", 2.0), ("classify", 3.0)])
def test_traced_run_counts_factorizations(workload, per_radicand):
    code, lines = bench("--workload", workload, "--seed", "5", "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["radicand.factorizations_per_radicand"]["value"] == per_radicand
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    report = json.loads(lines[-2])["report"]
    assert report["absent"] == []
    header, *spans = (ROOT / report["spans_file"]).read_text().splitlines()
    assert header.split("\t") == ["pass", "op", "name", "parent", "start_ns", "end_ns"]
    assert len(spans) == result["metrics"]["trace.spans"]["value"]


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    digest = golden["digests"]["smoke"]["classify"]["7"]
    golden["digests"]["smoke"]["classify"]["7"] = digest[::-1]
    path.write_text(json.dumps(golden))
    code, lines = bench("--workload", "classify", "--seed", "7", cwd=tmp_path)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"] and result["failed"] > 0


def test_missing_target_is_reported_absent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import cubic93
        import tracing

        targets = {
            "radicand.gerth_decompose": tracing.TARGETS["radicand.gerth_decompose"],
            "radicand.merged": ("cubic93.radicand", ("no_such_function",)),
            "gone.module": ("cubic93.no_such_module", ("f",)),
        }
        rec = tracing.Recorder(list(targets))
        with tracing.installed(rec, targets) as absent:
            cubic93.genus_number(455)
        assert absent == ["radicand.merged", "gone.module"]
        assert cubic93.radicand.gerth_decompose is cubic93.genus.gerth_decompose
        assert not hasattr(cubic93.genus.gerth_decompose, "__wrapped__")
        stats = rec.aggregate()
        assert stats["calls"] == {"radicand.gerth_decompose": 1, "radicand.merged": 0, "gone.module": 0}
    finally:
        del sys.path[:2]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "classify", cwd=tmp_path)
    assert code != 0 and not any(line.startswith('{"correct"') for line in lines)
