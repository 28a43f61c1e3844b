"""Smoke tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest perfbench -q

Each workload runs at its tiny --smoke size, traced and untraced.  The tests
check that every metric BENCHMARK.json names appears with its unit, that the
output checks ran and passed, that the counts repeat exactly for a seed, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
import bench  # noqa: E402

WORKLOADS = sorted(bench.WORKLOADS)
COUNTS = ("fields.candidates_per_prime", "ring.products_e", "ring.products_d", "keyfiles.ct_expansion")


def run_bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # set-up keygen or warm-up, keygens, and the roundtrips were all checked
    assert result["attempted"] >= 4
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    first = result_of(run_bench("element-c16-bulk", 1, seed=3))["metrics"]
    second = result_of(run_bench("element-c16-bulk", 1, seed=3))["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_tampered_digest_fails_the_run(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    digests_path = checkout / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())
    keys = digests["element-c16-bulk"]["keys"]
    keys["0x201"][0] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    result = result_of(run_bench("element-c16-bulk", 0, cwd=checkout))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
