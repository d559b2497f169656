"""Smoke test: the demo scripts run to completion in a fresh interpreter.

Each takes about one to two seconds.  ``fidelity_landscape.py`` runs 44
optimized sweep points, ``detector_reconstruction.py`` and
``loss_compensation.py`` the tomography pipeline, its boundary likelihood
fit included, end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catproj

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["detector_reconstruction.py", "fidelity_landscape.py", "loss_compensation.py"]
)
def test_demo_exits_cleanly(script):
    package_root = str(Path(catproj.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
