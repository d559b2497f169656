"""Golden preset runs: the cases, how to run one, and how to rewrite the files.

Each case is one or more ``catproj`` command lines run through ``cli.main``
in process, inside an empty working directory and with relative output
names, so that the paths printed on stdout and hashed into the artifacts
are the same on every machine.  A case's golden directory holds its
``stdout``, ``stderr`` and ``exit_code`` plus every file the run left in the
working directory, under ``files/``.  ``environment.json`` records the numpy
and scipy versions, the BLAS and the platform the files were recorded on:
numpy's SIMD ``exp``, ``sin`` and ``log`` may round differently on another
CPU, scipy's ``erfc`` on another release, and ``np.dot`` with another BLAS
kernel.

Rewrite every golden file (from the repository root)::

    PYTHONPATH=src python tests/golden/record.py

or only the named cases, on the environment of ``environment.json``::

    PYTHONPATH=src python tests/golden/record.py tomography-fig5

A change that moves results re-records in the same change and lists the
moves that ``tests/test_golden.py`` reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent

# case id -> steps; a step is (argv, config written to config.json or None)
CASES: dict[str, tuple] = {
    "fidelity-sweep-fig1b": ((["fidelity-sweep", "--preset", "fig1b", "--out", "fig1b.csv"], None),),
    "fidelity-sweep-fig1d": ((["fidelity-sweep", "--preset", "fig1d", "--out", "fig1d.csv"], None),),
    "fidelity-sweep-lab": (
        (
            ["fidelity-sweep", "--preset", "fig1b", "--config", "config.json", "--out", "lab.csv"],
            {"eta": 0.689, "nu": 5.32e-5, "visibility": 0.998},
        ),
    ),
    # phi = 4 pi / 3 lies off both mirror axes, so the mirrored half of each
    # search grid (conjugated contrast, swapped homodyne entries) shows here
    "fidelity-sweep-mirror": (
        (
            ["fidelity-sweep", "--preset", "fig1b", "--config", "config.json", "--out", "mirror.csv"],
            {"phi_values": [round(4 * math.pi / 3, 10)]},
        ),
    ),
    "fidelity-sweep-mirror-lab": (
        (
            ["fidelity-sweep", "--preset", "fig1b", "--config", "config.json", "--out", "mirror-lab.csv"],
            {"phi_values": [round(4 * math.pi / 3, 10)], "eta": 0.689, "nu": 5.32e-5, "visibility": 0.998},
        ),
    ),
    "tomography-fig3": ((["tomography", "--preset", "fig3", "--out", "fig3.json"], None),),
    "tomography-fig3-seed11": (
        (["tomography", "--preset", "fig3", "--seed", "11", "--out", "fig3.json"], None),
    ),
    "tomography-fig4": ((["tomography", "--preset", "fig4", "--out", "fig4.csv"], None),),
    "tomography-fig5": ((["tomography", "--preset", "fig5", "--out", "fig5.csv"], None),),
    "simulate-fig3": ((["simulate", "--preset", "fig3", "--out", "sim.csv"], None),),
    "tomography-fig3-ingest": (
        (["simulate", "--preset", "fig3", "--out", "sim.csv"], None),
        (
            ["tomography", "--preset", "fig3", "--config", "config.json", "--out", "ingest.json"],
            {"clicks": "sim.csv"},
        ),
    ),
    "optimize": ((["optimize"], None),),
    "optimize-fig3": ((["optimize", "--preset", "fig3"], None),),
    "selftest": ((["selftest"], None),),
}

CONFIG_NAME = "config.json"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_case(case: str, work: Path) -> dict[str, bytes]:
    """Run one case in the empty directory ``work``; return every recorded
    artifact by name: stdout, stderr, exit_code and files/<output name>."""
    from catproj.cli import main

    out, err = io.StringIO(), io.StringIO()
    here = Path.cwd()
    os.chdir(work)
    try:
        for argv, config in CASES[case]:
            if config is not None:
                Path(CONFIG_NAME).write_text(json.dumps(config), encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            if code != 0:
                break
    finally:
        os.chdir(here)
    got = {
        "stdout": out.getvalue().encode("utf-8"),
        "stderr": err.getvalue().encode("utf-8"),
        "exit_code": f"{code}\n".encode("utf-8"),
    }
    for path in sorted(work.iterdir()):
        if path.name != CONFIG_NAME:
            got[f"files/{path.name}"] = path.read_bytes()
    return got


def recorded(case: str) -> dict[str, bytes]:
    root = GOLDEN / case
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _numbers(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _csv_columns(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """Comment lines, and each data column's cells by header name."""
    comments = [line for line in text.splitlines() if line.startswith("#")]
    rows = list(csv.reader(line for line in text.splitlines() if line and not line.startswith("#")))
    if not rows:
        return comments, {}
    return comments, {name: [row[i] if i < len(row) else "" for row in rows[1:]] for i, name in enumerate(rows[0])}


def _json_columns(text: str) -> dict[str, list[str]]:
    """Each leaf of a JSON document, grouped by its path with list indices as []."""
    columns: dict[str, list[str]] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            columns.setdefault(path, []).append(json.dumps(node))

    walk(json.loads(text), "")
    return columns


def _column_moves(want: dict[str, list[str]], got: dict[str, list[str]]) -> list[str]:
    lines = []
    for name in sorted(set(want) | set(got)):
        a, b = want.get(name), got.get(name)
        if a is None or b is None:
            lines.append(f"  {name}: column {'added' if a is None else 'removed'}")
            continue
        if len(a) != len(b):
            lines.append(f"  {name}: {len(a)} rows recorded, {len(b)} now")
            continue
        moved = [(x, y) for x, y in zip(a, b) if x != y]
        if not moved:
            continue
        line = f"  {name}: {len(moved)} of {len(a)} rows moved"
        pairs = [_numbers([x, y]) for x, y in moved]
        if all(p is not None for p in pairs):
            line += f", largest move {max(abs(p[1] - p[0]) for p in pairs):.3g}"
        lines.append(line)
    return lines


def describe_mismatch(name: str, want: bytes, got: bytes) -> str:
    """A readable account of how ``got`` differs from the recorded ``want``."""
    a, b = want.decode("utf-8"), got.decode("utf-8")
    lines = [f"{name} differs:"]
    try:
        if name.endswith(".csv"):
            (ca, cols_a), (cb, cols_b) = _csv_columns(a), _csv_columns(b)
            lines += [f"  header line now {y!r} (was {x!r})" for x, y in zip(ca, cb) if x != y]
            if len(ca) != len(cb):
                lines.append(f"  {len(ca)} header lines recorded, {len(cb)} now")
            lines += _column_moves(cols_a, cols_b)
        elif a.lstrip().startswith("{") and b.lstrip().startswith("{"):
            lines += _column_moves(_json_columns(a), _json_columns(b))
    except (ValueError, csv.Error):
        pass
    if len(lines) == 1:
        la, lb = a.splitlines(), b.splitlines()
        first = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
        lines.append(f"  first difference at line {first + 1}:")
        lines.append(f"    recorded: {la[first] if first < len(la) else '<end>'!r}")
        lines.append(f"    now:      {lb[first] if first < len(lb) else '<end>'!r}")
    return "\n".join(lines)


def record(cases=None) -> None:
    """Rewrite the golden files of ``cases`` (every case if ``None``).  An
    unknown case id, or a partial re-record on another environment than the
    recorded one, is an error before any file is written."""
    unknown = sorted(set(cases or ()) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case {', '.join(unknown)}; choose from {', '.join(CASES)}")
    env = GOLDEN / "environment.json"
    if cases and json.loads(env.read_text()) != environment():
        raise SystemExit(f"the golden files were recorded on {env.read_text()}; re-record every case here")
    for case in cases or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(case, Path(tmp))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        for name, data in got.items():
            path = GOLDEN / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        print(f"recorded {case}: exit {got['exit_code'].decode().strip()}, {len(got) - 3} file(s)")
    env.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
