"""The import path stays free of scipy and of work done on first use.

Every CLI call is a fresh process, so the modules that ``import catproj.cli``
loads are paid on every call.  scipy is imported only where it is used: the
homodyne code (``scipy.special.erfc``) and the BVLS fallback of the series
solve (``scipy.optimize.lsq_linear``).  Each case runs commands through
``cli.main`` in a fresh interpreter and lists the scipy modules loaded after
the import and after the commands.  The import also builds none of the
cached displacement tables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import catproj

PROBE = """
import json, sys
import catproj.cli
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
after_import = loaded()
for argv in json.loads(sys.argv[1]):
    if catproj.cli.main(argv) != 0:
        sys.exit(f"catproj {' '.join(argv)} failed")
print(json.dumps({"after_import": after_import, "after_commands": loaded()}))
"""


def fresh_interpreter(code: str, *args: str) -> str:
    """The last line that ``code`` prints in a new interpreter."""
    package_root = str(Path(catproj.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def loaded_scipy(commands: list[list[str]]) -> dict:
    return json.loads(fresh_interpreter(PROBE, json.dumps(commands)))


def test_import_builds_no_displacement_tables():
    # the per-cutoff Laguerre constants are built on first use, so a command
    # that never displaces does not pay for them
    code = "import catproj.cli, catproj.fock; print(catproj.fock._laguerre_table.cache_info().currsize)"
    assert fresh_interpreter(code) == "0"


def test_counting_commands_load_no_scipy(tmp_path):
    modules = loaded_scipy(
        [
            ["selftest"],
            ["simulate", "--preset", "fig3", "--out", str(tmp_path / "clicks.csv")],
            ["tomography", "--preset", "fig3", "--out", str(tmp_path / "tomography.json")],
        ]
    )
    assert modules == {"after_import": [], "after_commands": []}


def test_tomography_sweep_loads_no_scipy(tmp_path):
    # fig4 runs displacement searches and five boundary likelihood fits, all
    # of them on numpy and scalar closed forms
    modules = loaded_scipy([["tomography", "--preset", "fig4", "--out", str(tmp_path / "sweep.csv")]])
    assert modules == {"after_import": [], "after_commands": []}


def test_homodyne_sweep_loads_only_scipy_special(tmp_path):
    modules = loaded_scipy([["fidelity-sweep", "--preset", "fig1b", "--out", str(tmp_path / "sweep.csv")]])
    assert modules["after_import"] == []
    loaded = modules["after_commands"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.linalg"))]
