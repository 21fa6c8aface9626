"""Smoke tests: the demo scripts and the README tour run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_pulse_trajectories.py",
    "02_truth_table.py",
    "03_process_tomography.py",
    "04_certification.py",
)


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md#library-tour", "exec"), {})
