"""Smoke test of the benchmark itself: every workload at a tiny size.

Run with ``python -m pytest benchmarks/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], float)
    result = json.loads(out.read_text())
    assert {"python", "numpy", "nproc", "cpu", "commit"} <= result["env"].keys()
    (r,) = result["runs"]
    assert (r["workload"], r["seed"], r["traced"]) == (workload, 3, bool(trace))
    if not trace:
        assert r["metrics"]["error_rate"]["value"] == 0
    if workload == "floatscan":
        assert sum(r["verdicts"].values()) == r["verdict_pairs"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "keysize", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10, 11, 12, 10, 11] * 2, [5, 6, 5, 6, 5] * 2, "better"),
        ([10, 11, 12, 10, 11] * 2, [20, 21, 20, 22, 20] * 2, "worse"),
        ([10, 11, 12, 10, 11] * 2, [11, 10, 11, 12, 10] * 2, "unchanged"),
        ([5, 20, 8, 15, 10] * 2, [9, 16, 7, 14, 11] * 2, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, verdict):
    assert run.judge(parent, change, lower_is_better=True, bound=0.25)[0] == verdict
