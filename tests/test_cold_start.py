"""The import path stays free of scipy and of work done on first use.

A ``catproj`` command is a fresh process, so the modules that ``import
catproj.cli`` loads, and the one argument parser it builds, are paid on every
command; ``main(argv)`` may also be called repeatedly in one process, with
that one parser, and a bad flag is a JSON record there too.  scipy is
imported only where it is used: the homodyne code (``scipy.special.erfc``);
everything else runs on numpy.  Each case runs commands through ``cli.main``
in a fresh interpreter and lists the scipy modules loaded after the import
and after the commands.  The import also builds none of the cached
displacement tables.  A static scan checks that every scipy import in the
package is a ``scipy.special`` import made inside a function body; others
pin the one caller of each shared kernel and the private names that cross
module boundaries.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import catproj
from catproj.serialize import write_click_table
from catproj.tomography import ClickTable, ProbeSet

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


def test_an_out_of_box_series_fit_loads_no_scipy(tmp_path):
    # these fig3 rates put the odd series outside its coefficient box, so the
    # ingest runs the face-enumerating solve
    probes = ProbeSet(0.499, (0.2, 0.3))
    clicks = tmp_path / "clicks.csv"
    rates = [0.6, 0.4, 0.95, 0.05, 0.05, 0.95]
    write_click_table(clicks, ClickTable.from_rates(probes.amplitudes(), rates, 200_000), {}, 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"clicks": str(clicks)}))
    argv = ["tomography", "--preset", "fig3", "--config", str(config), "--out", str(tmp_path / "detector.json")]
    assert loaded_scipy([argv]) == {"after_import": [], "after_commands": []}


def test_homodyne_sweep_loads_only_scipy_special(tmp_path):
    modules = loaded_scipy([["fidelity-sweep", "--preset", "fig1b", "--out", str(tmp_path / "sweep.csv")]])
    assert modules["after_import"] == []
    loaded = modules["after_commands"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.linalg"))]


def _scipy_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """(module, whether inside a function body) of each scipy import;
    ``from scipy import x`` counts as an import of ``scipy.x``."""

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            yield from ((name, inside) for name in names if name.partition(".")[0] == "scipy")
            yield from walk(child, inside)

    return list(walk(tree, False))


def test_every_scipy_import_is_scipy_special_inside_a_function():
    # the BVLS import once sat in a branch that no preset reaches
    sample = "import scipy.optimize\ndef f():\n    from scipy import special\n"
    assert _scipy_imports(ast.parse(sample)) == [("scipy.optimize", False), ("scipy.special", True)]
    importers = set()
    for path in sorted(Path(catproj.__file__).resolve().parent.glob("*.py")):
        for name, in_function in _scipy_imports(ast.parse(path.read_text(encoding="utf-8"))):
            assert name == "scipy.special" and in_function, f"{path.name} imports {name}"
            importers.add(path.name)
    # the two homodyne functions hold the only scipy imports
    assert importers == {"fidelity.py", "povm.py"}


def _fock_and_povm_imports(tree: ast.Module) -> dict[str, set]:
    """The names each import from ``fock`` or ``povm``, relative or absolute,
    binds anywhere in a module, keyed by the module imported from;
    ``from . import fock`` binds ``*``."""
    found = {"fock": set(), "povm": set()}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        names = [alias.name for alias in node.names]
        if node.module is None and node.level == 1:
            for name in found.keys() & set(names):
                found[name].add("*")
        else:
            module = (node.module or "").removeprefix("catproj.")
            if module in found and (node.level == 1 or node.module.startswith("catproj.")):
                found[module].update(names)
    return found


def test_tomography_imports_no_fock_space_machinery():
    # the 2x2 reconstruction takes no cutoff: from fock it needs the cat
    # amplitude floor, the spec type and the closed-form cat norms, and
    # from povm nothing
    sample = "from .fock import a\ndef f():\n    from .povm import b\nfrom catproj.fock import c\nfrom . import povm\n"
    assert _fock_and_povm_imports(ast.parse(sample)) == {"fock": {"a", "c"}, "povm": {"b", "*"}}
    path = Path(catproj.__file__).resolve().parent / "tomography.py"
    found = _fock_and_povm_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert found == {"fock": {"MIN_ALPHA", "ScsMeasurementSpec", "cat_norm_squares"}, "povm": set()}


def _callers(tree: ast.Module, name: str) -> set:
    """The innermost function around each call of ``name``, as a method
    (``x.name(...)``) or a plain name (``name(...)``), or ``None`` for a
    call outside any function."""

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                    yield function
            yield from walk(child, function)

    return set(walk(tree, None))


def _package_callers(name: str) -> set:
    callers = set()
    for path in sorted(Path(catproj.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {(path.name, function) for function in _callers(tree, name)}
    return callers


def test_one_function_matches_click_rows_to_probes():
    # a reconstruction matches the rows of a click table to its probes once,
    # by amplitude, and reads them by position after that
    sample = "def f(t):\n    def g():\n        t.row_index(1)\n    return t.row_index(0)\nx = t.row_index(2)\n"
    assert _callers(ast.parse(sample), "row_index") == {"f", "g", None}
    assert _package_callers("row_index") == {("tomography.py", "_match_probe_rows")}


def test_one_function_runs_each_reconstruction_solver():
    # a single run and a sweep share one stacked reconstruction: each solver
    # has one caller, which hands it a whole stack or only the rows that
    # need it (fits outside their box, optima on the boundary)
    sample = "def f():\n    solve_phi(1)\n    m.solve_phi(2)\ndef g():\n    return [solve_phi]\n"
    assert _callers(ast.parse(sample), "solve_phi") == {"f"}
    assert _package_callers("solve_phi") == {("tomography.py", "_series_fits")}
    assert _package_callers("_linear_inversion") == {("tomography.py", "_mle_stack")}
    assert _package_callers("_barrier_newton") == {("tomography.py", "_mle_stack")}


def _private_imports(tree: ast.Module) -> set:
    """(module, name) of each private name (one leading underscore, not a
    dunder) that a module imports from a module of the package, relative or
    absolute, anywhere in its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("catproj.")):
            module = (node.module or "").removeprefix("catproj.")
            found.update((module, a.name) for a in node.names if a.name.startswith("_") and not a.name.startswith("__"))
    return found


# every private name that crosses a module boundary in the package, by the
# module that imports it
CROSSINGS = {
    "cli.py": {
        ("fidelity", "_click_form"),
        ("fidelity", "_contrast"),
        ("tomography", "_check_error_bar_width"),
        ("tomography", "_match_probe_rows"),
    },
    "experiment.py": {
        ("fidelity", "_search_displacements"),
        ("fock", "_coherent_magnitudes"),
        ("fock", "_logfact"),
        ("povm", "_counting_povm"),
        ("povm", "_outcome_weights"),
        ("povm", "_partition"),
        ("tomography", "_reconstruct"),
    },
    "fidelity.py": {
        ("fock", "_guarded_displacements"),
        ("povm", "_counting_elements"),
        ("povm", "_displaced_overlaps"),
        ("povm", "_failures"),
        ("povm", "_outcome_weights"),
    },
    "povm.py": {("fock", "_logfact")},
}


def test_private_names_cross_module_boundaries_only_where_listed():
    # a new private import fails here; a change that removes one updates the list
    sample = "from .fock import _a, b, __version__\nfrom . import povm\ndef f():\n    from catproj.povm import _c\n"
    assert _private_imports(ast.parse(sample)) == {("fock", "_a"), ("povm", "_c")}
    found = {}
    for path in sorted(Path(catproj.__file__).resolve().parent.glob("*.py")):
        names = _private_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.name] = names
    assert found == CROSSINGS


def test_one_function_scores_displaced_counting():
    # both sweeps take their f_dp (the tomography sweep's f_ideal) and the D
    # it is scored on from the search plan's stacks, the one search-and-score
    # route; besides it, only a report's own check and the public
    # single-matrix builder build a guarded D
    assert _package_callers("_click_score") == {("fidelity.py", "stacks")}
    assert _package_callers("_guarded_displacements") == {
        ("fidelity.py", "stacks"),
        ("fidelity.py", "verify"),
        ("fock.py", "displacement_operator"),
    }
