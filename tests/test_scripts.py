"""The example scripts run against the current library API."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [["toy_walkthrough.py"]],
    ids=["toy_walkthrough"],
)
def test_script_exits_zero(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
