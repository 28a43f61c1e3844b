"""The example scripts, the README tour and the traced benchmark replay run
against the current library API."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "script",
    [["toy_walkthrough.py"], ["bench_record.py", "--help"]],
    ids=["toy_walkthrough", "bench_record_help"],
)
def test_script_exits_zero(script):
    proc = run_python(str(ROOT / "scripts" / script[0]), *script[1:])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "assert" in code
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_replay_runs():
    # perfbench/layers.py replays library calls (ring.norm, lattice.hnf, ...)
    # in process, so a changed signature or result shows up here
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "element-c64-keys",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
