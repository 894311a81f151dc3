"""The experiment scripts run end to end and print their report headers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeconv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = str(Path(freeconv.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, header",
    [
        ("commutator_density.py", "grid: 361 points on [-3.6, 3.6]"),
        ("quarter_circle_kurtosis.py", "law                  statistic     verdict"),
        ("wplus_scan.py", "t      edge        closed form  error"),
    ],
)
def test_script_runs(script, header):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header
