import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catproj
from catproj import fidelity, fock
from catproj.cli import _SCHEMA, COMMANDS, NMAX_CEILING, PRESETS, main, resolve_config, validate_config
from catproj.fidelity import optimize_displacement
from catproj.fock import ScsMeasurementSpec, TruncationDim
from catproj.povm import IDEAL_DETECTOR
from catproj.serialize import config_digest, read_click_table, write_click_table
from catproj.tomography import ClickTable, ProbeSet

SIM_CONFIG = {
    "alpha": 0.499,
    "c0sq": 0.5,
    "phi": round(math.pi / 2, 10),
    "drive_amplitude": 0.894,
    "drive_phase": round(math.pi / 2, 10),
    "eta": 0.689,
    "nu": 5.32e-5,
    "visibility": 0.998,
    "gammas": [0.2, 0.3],
    "shots": 2000,
    "seed": 3,
    "nmax": 16,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def last_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class FakeArgs:
    def __init__(self, **kw):
        self.preset = kw.get("preset")
        self.config = kw.get("config")
        self.seed = kw.get("seed")
        self.nmax = kw.get("nmax")
        self.out = kw.get("out")


def test_config_precedence(tmp_path):
    path = write_config(tmp_path, {"shots": 50, "nmax": 12})
    cfg = resolve_config(FakeArgs(preset="fig3", config=path, seed=99))
    assert cfg["shots"] == 50  # file beats preset
    assert cfg["nmax"] == 12
    assert cfg["seed"] == 99  # flag beats file and preset
    assert cfg["alpha"] == 0.499  # untouched preset value survives


def test_validate_config_rejects_unknown_and_mistyped():
    with pytest.raises(ValueError, match="unknown config key"):
        validate_config({"bogus": 1})
    with pytest.raises(ValueError, match="wrong type"):
        validate_config({"alpha": "big"})
    with pytest.raises(ValueError, match="wrong type"):
        validate_config({"shots": True})
    # NaN and infinity parse from JSON; true and null hide in lists
    for bad in (
        {"c0sq_values": [math.nan]},
        {"c0sq": math.nan},
        {"alpha": math.inf},
        {"c0sq_values": [0.5, True]},
        {"c0sq_values": [0.6, None]},
        {"gammas": [0.2, "0.3"]},
    ):
        with pytest.raises(ValueError, match="finite numbers"):
            validate_config(bad)
    assert validate_config({"alpha": 1}) == {"alpha": 1}  # int where float is fine


def test_presets_are_schema_valid():
    for name, preset in PRESETS.items():
        assert validate_config(dict(preset)) is not None, name


def test_fidelity_sweep_writes_reproducible_csv(tmp_path, capsys):
    cfg = {
        "c0sq_values": [0.5, 1.0],
        "alpha_sq_values": [0.25],
        "phi_values": [0.0],
        "nmax": 14,
    }
    path = write_config(tmp_path, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fidelity-sweep", "--config", path, "--out", str(a)]) == 0
    assert main(["fidelity-sweep", "--config", path, "--out", str(b)]) == 0
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# schema: catproj/sweep")
    assert sum(1 for line in lines if not line.startswith("#")) == 3  # header + 2 rows
    payload = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert payload(a) == payload(b)


def test_fidelity_sweep_empty_grid_leaves_no_file(tmp_path, capsys):
    path = write_config(tmp_path, {"c0sq_values": [], "alpha_sq_values": [0.25], "phi_values": [0.0]})
    out = tmp_path / "never.csv"
    assert main(["fidelity-sweep", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config"
    assert not out.exists()


def test_optimize_prints_report(tmp_path, capsys):
    cfg = {"alpha": 0.5, "c0sq": 0.75, "phi": 0.0, "nmax": 14}
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    beta, f = optimize_displacement(
        ScsMeasurementSpec.from_c0sq(0.5, 0.75, 0.0), IDEAL_DETECTOR, TruncationDim(14)
    )
    assert payload["f_dp"] == pytest.approx(f, abs=1e-9)
    assert payload["beta_opt_re"] == pytest.approx(beta.real, abs=1e-6)
    assert payload["f_pn"] == 0.75
    assert payload["schema"] == "catproj/optimize 1.0"
    assert payload["config_sha256"] == config_digest(cfg)

    # --out writes the same report, and the digest ignores the output path
    out = tmp_path / "report.json"
    assert main(["optimize", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


def test_failed_point_writes_one_stderr_line(tmp_path, capsys):
    # alpha^2 = 6.76 does not fit a 10-level truncation; the failure must be
    # the one JSON record on stderr, with no library warning ahead of it
    sweep_cfg = {"c0sq_values": [0.75], "alpha_sq_values": [0.25, 6.76], "phi_values": [0.0], "nmax": 10}
    sweep_path = write_config(tmp_path, sweep_cfg)
    optimize_path = write_config(tmp_path, {"alpha": 2.6, "c0sq": 0.5, "nmax": 10}, "opt.json")
    for argv, stage in (
        (["fidelity-sweep", "--config", sweep_path, "--out", str(tmp_path / "x.csv")], "sweep"),
        (["optimize", "--config", optimize_path], "optimize"),
    ):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        record = json.loads(lines[0])
        assert record["stage"] == stage
        assert "n_max=10" in record["message"]
    assert record["error"] == "CutoffTooSmallError"  # not an IndexError from an empty sweep
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "entry, stage", [({"alpha": 1e200}, "config"), ({"gammas": [0.2, 1e200]}, "simulate")]
)
def test_an_overflowing_probe_amplitude_is_one_cutoff_record(tmp_path, capsys, entry, stage):
    path = write_config(tmp_path, entry)
    out = tmp_path / "never.csv"
    assert main(["simulate", "--preset", "fig3", "--config", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == stage
    assert "1e+200" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [1e10, 1e200])
def test_an_overflowing_drive_is_one_cutoff_record(tmp_path, amplitude):
    # a fresh interpreter with the default warning filters: an overflow in the
    # displacement matrix must not print a numpy warning ahead of the record,
    # and a NaN unitarity defect must fail the guard, not a later eigensolver
    path = write_config(tmp_path, {"drive_amplitude": amplitude})
    out = tmp_path / "never.csv"
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    package_root = str(Path(catproj.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "catproj.cli", "simulate", "--preset", "fig3", "--config", path, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == "config"
    assert not out.exists()


def test_simulate_deterministic_and_readable(tmp_path):
    path = write_config(tmp_path, SIM_CONFIG)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", "--config", path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", path, "--out", str(b)]) == 0
    assert main(["simulate", "--config", path, "--out", str(c), "--seed", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    table, meta = read_click_table(a)
    assert meta["seed"] == "3"
    assert len(table.probe_amplitudes) == 6
    assert float(max(table.shots)) == 2000.0


def test_tomography_ingest_matches_simulation_path(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SIM_CONFIG)
    clicks = tmp_path / "clicks.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(clicks)]) == 0

    direct = tmp_path / "direct.json"
    assert main(["tomography", "--config", cfg_path, "--out", str(direct)]) == 0

    ingest_cfg = write_config(tmp_path, {**SIM_CONFIG, "clicks": str(clicks)}, "ingest.json")
    ingested = tmp_path / "ingested.json"
    assert main(["tomography", "--config", ingest_cfg, "--out", str(ingested)]) == 0

    a = json.loads(direct.read_text())
    b = json.loads(ingested.read_text())
    assert a["povm"] == b["povm"]
    assert a["expectations"] == b["expectations"]

    # the config names the click file by path only; its bytes are hashed too
    assert "clicks_sha256" not in a
    assert b["clicks_sha256"] == hashlib.sha256(clicks.read_bytes()).hexdigest()
    assert main(["simulate", "--config", cfg_path, "--seed", "4", "--out", str(clicks)]) == 0
    assert main(["tomography", "--config", ingest_cfg, "--out", str(ingested)]) == 0
    c = json.loads(ingested.read_text())
    assert c["config_sha256"] == b["config_sha256"]
    assert c["clicks_sha256"] == hashlib.sha256(clicks.read_bytes()).hexdigest() != b["clicks_sha256"]


def test_tomography_ingest_corrupted_table(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SIM_CONFIG)
    clicks = tmp_path / "clicks.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(clicks)]) == 0
    capsys.readouterr()
    text = clicks.read_text().splitlines()
    corrupted = []
    # a NaN count passes every comparison, so it needs its own check
    for cell, reason in (("999999", "sum"), ("nan", "finite")):
        cells = text[-1].split(",")
        cells[3] = cell
        corrupted.append((text[:-1] + [",".join(cells)], reason))
    # the header and column row with no probe rows under them
    header = sum(1 for line in text if line.startswith("#"))
    corrupted.append((text[: header + 1], "empty"))
    for lines, reason in corrupted:
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")

        bad_cfg = write_config(tmp_path, {**SIM_CONFIG, "clicks": str(tmp_path / "bad.csv")}, "bad.json")
        assert main(["tomography", "--config", bad_cfg, "--out", str(tmp_path / "x.json")]) == 1
        records = capsys.readouterr().err.strip().splitlines()
        assert len(records) == 1
        record = json.loads(records[0])
        assert record["stage"] == "ingest"
        assert reason in record["message"]
        assert not (tmp_path / "x.json").exists()


@cache
def fig3_click_lines() -> tuple[str, ...]:
    """The lines of the click table that ``simulate --preset fig3`` writes."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        out = Path(tmp) / "clicks.csv"
        assert main(["simulate", "--preset", "fig3", "--out", str(out)]) == 0
        return tuple(out.read_text().splitlines())


def fig3_tomography(lines, tmp: Path) -> tuple[int, list[str], list[Path]]:
    """Run ``tomography --preset fig3`` on a click table with these lines:
    the exit code, the stderr lines and the files left in ``tmp``."""
    clicks = tmp / "clicks.csv"
    clicks.write_text("\n".join(lines) + "\n")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"clicks": str(clicks)}))
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        rc = main(["tomography", "--preset", "fig3", "--config", str(cfg), "--out", str(tmp / "out.json")])
    return rc, stderr.getvalue().splitlines(), sorted(tmp.iterdir())


def test_tomography_ingest_rejects_a_missing_probe_amplitude(tmp_path):
    # moving row 1 off -alpha leaves a table that parses but lacks a probe
    lines = list(fig3_click_lines())
    row = lines.index("probe_label,re_amp,im_amp,outcome0_count,outcome1_count,shots") + 2
    cells = lines[row].split(",")
    cells[1] = "-1"
    lines[row] = ",".join(cells)
    rc, records, files = fig3_tomography(lines, tmp_path)
    assert rc == 1 and len(records) == 1
    record = json.loads(records[0])
    assert record["stage"] == "ingest" and record["error"] == "ValueError"
    assert "no row at probe amplitude (-0.499+0j)" in record["message"]
    assert not (tmp_path / "out.json").exists()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    token=st.sampled_from(["", "nan", "inf", "1e309", "-1", "abc", "0x10"]),
    row=st.integers(0, 5),
    column=st.integers(0, 5),
)
def test_every_bad_click_cell_fails_at_ingest_or_not_at_all(token, row, column):
    lines = list(fig3_click_lines())
    start = lines.index("probe_label,re_amp,im_amp,outcome0_count,outcome1_count,shots") + 1
    cells = lines[start + row].split(",")
    cells[column] = token
    lines[start + row] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        rc, records, files = fig3_tomography(lines, Path(tmp))
        if rc == 0:
            assert records == [] and Path(tmp, "out.json") in files
        else:
            assert rc == 1 and len(records) == 1, records
            assert json.loads(records[0])["stage"] == "ingest"
            assert Path(tmp, "out.json") not in files


def test_tomography_series_solve_on_its_box_bounds(tmp_path, capsys):
    # valid click rates whose odd series sits on its box bounds; the
    # box-constrained solve used to spin through its iteration budget here
    probes = ProbeSet(0.499, (0.16, 0.48, 0.56))
    rates = [0.5, 0.5, 0.016, 0.638, 0.322, 0.228, 0.2, 0.472]
    clicks = tmp_path / "clicks.csv"
    write_click_table(clicks, ClickTable.from_rates(probes.amplitudes(), rates, 200_000), {}, 0)
    path = write_config(tmp_path, {"gammas": list(probes.gammas), "clicks": str(clicks)})
    out = tmp_path / "detector.json"
    assert main(["tomography", "--preset", "fig3", "--config", path, "--out", str(out)]) == 0
    phi = json.loads(out.read_text())["phi"][0]
    assert phi[1] == pytest.approx(2 / math.sqrt(2) + 1 / math.sqrt(6), abs=1e-11)


def test_tomography_sweep_mode(tmp_path, capsys):
    cfg = {
        **{k: v for k, v in SIM_CONFIG.items() if k not in ("c0sq", "phi", "drive_amplitude", "drive_phase")},
        "mode": "sweep",
        "c0sq_values": [0.6, 1.0],
        "phi_values": [0.0],
        "quantize": False,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "recon.csv"
    assert main(["tomography", "--config", path, "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:2] == ["c0sq", "phi"]
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.6, 1.0]
    for row in rows:
        for cell in row[4:]:
            assert 0.0 <= float(cell) <= 1.0

    # point i is seeded with seed + i: a sweep that would run past the
    # 64-bit seed range fails before any point is computed
    capsys.readouterr()
    late = tmp_path / "late.csv"
    assert main(["tomography", "--config", path, "--seed", str(2**64 - 1), "--out", str(late)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config"
    assert "64-bit" in record["message"]
    assert not late.exists()


def test_tomography_sweep_guards_a_schedule_level_beyond_the_cutoff(tmp_path, capsys):
    # the apparatus model builds the guarded displacement operator before
    # any fidelity is scored, so an amplitude the cutoff cannot hold stops
    # the sweep at stage reconstruct
    path = write_config(tmp_path, {"schedule": [2.5], "c0sq_values": [0.5, 0.6]})
    out = tmp_path / "never.csv"
    assert main(["tomography", "--preset", "fig4", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == "reconstruct"
    assert "unitarity defect" in record["message"] and "n_max=24" in record["message"]
    assert not out.exists()


def test_selftest_passes_and_reports(tmp_path, capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selftest_guards_small_truncation(capsys):
    # the published operating point is not certified at this cutoff; the
    # displacement guard inside the battery turns that into a clean failure
    # of the selftest stage
    assert main(["selftest", "--nmax", "16"]) == 1
    record = last_error(capsys)
    assert record["error"] == "CutoffTooSmallError"
    assert record["stage"] == "selftest"


def test_selftest_rejects_invalid_detector(tmp_path, capsys):
    path = write_config(tmp_path, {"eta": 1.3})
    assert main(["selftest", "--config", path]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config"
    assert "eta" in record["message"]


def test_unknown_preset_and_key(tmp_path, capsys):
    assert main(["optimize", "--preset", "fig9"]) == 1
    assert "unknown preset" in last_error(capsys)["message"]
    path = write_config(tmp_path, {"mystery": 2})
    assert main(["optimize", "--config", path]) == 1
    assert "unknown config key" in last_error(capsys)["message"]
    # the sweep is serial; a thread count is no longer a setting
    path = write_config(tmp_path, {"threads": 2}, "threads.json")
    assert main(["fidelity-sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config"
    assert "unknown config key 'threads'" in record["message"]


def test_out_of_range_settings_fail_at_config(tmp_path, capsys, monkeypatch):
    # an oversized cutoff is rejected before any displacement matrix is built
    def no_matrices(*args, **kwargs):
        raise AssertionError("a displacement matrix was built")

    monkeypatch.setattr(fock, "_displacement_matrix", no_matrices)
    monkeypatch.setattr(fidelity, "_displacement_matrix", no_matrices)
    for nmax in (0, NMAX_CEILING + 1, 1000):
        assert main(["optimize", "--nmax", str(nmax)]) == 1
        record = last_error(capsys)
        assert record["stage"] == "config" and "nmax" in record["message"]
    assert validate_config({"nmax": NMAX_CEILING}) == {"nmax": NMAX_CEILING}
    # a negative error-bar width used to run and write "error_bars": null
    path = write_config(tmp_path, {"error_bars_sigma": -0.01})
    out = tmp_path / "never.json"
    assert main(["tomography", "--preset", "fig3", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config" and "error_bars_sigma" in record["message"]
    assert not out.exists()


def test_one_parser_lists_the_commands_and_takes_flags_anywhere(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for name, cmd in COMMANDS.items():
        assert name in text and cmd.__doc__ in text
    out = tmp_path / "report.json"
    assert main(["--nmax", "14", "--out", str(out), "optimize"]) == 0
    assert json.loads(out.read_text())["schema"] == "catproj/optimize 1.0"


_NUMBER_KEYS = sorted(k for k, want in _SCHEMA.items() if want == (int, float))
_INT_KEYS = sorted(k for k, want in _SCHEMA.items() if want is int)
_LIST_KEYS = sorted(k for k, want in _SCHEMA.items() if want is list)
_TEXT_KEYS = sorted(k for k, want in _SCHEMA.items() if want is str)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_A_NUMBER = st.one_of(st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2))
_BAD_ELEMENT = st.one_of(_NOT_FINITE, st.booleans(), st.none(), st.text(max_size=2))

# one (key, value) pair that validate_config must reject
_BAD_ENTRIES = st.one_of(
    st.tuples(st.text(max_size=8).filter(lambda k: k not in _SCHEMA), st.integers()),
    st.tuples(
        st.sampled_from(_NUMBER_KEYS + _INT_KEYS),
        st.one_of(_NOT_FINITE, st.booleans(), _NOT_A_NUMBER),
    ),
    st.tuples(st.sampled_from(_INT_KEYS), st.floats()),  # 2.0 is not an int either
    st.tuples(
        st.sampled_from(_LIST_KEYS),
        st.one_of(
            st.floats(0.0, 1.0),
            st.text(max_size=4),
            st.lists(_BAD_ELEMENT, min_size=1, max_size=3),
        ),
    ),
    st.tuples(
        st.sampled_from(_TEXT_KEYS),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.none()),
    ),
    st.tuples(st.just("quantize"), st.one_of(st.integers(), st.text(max_size=4), st.none())),
    st.tuples(
        st.just("nmax"),
        st.one_of(st.integers(max_value=0), st.integers(min_value=NMAX_CEILING + 1)),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(COMMANDS)), entry=_BAD_ENTRIES, base=st.booleans())
def test_every_bad_config_is_one_config_record(command, entry, base):
    key, value = entry
    cfg = {"alpha": 0.5, "c0sq": 0.75} if base else {}
    cfg[key] = value
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with redirect_stderr(stderr):
            assert main([command, "--config", str(path), "--out", str(Path(tmp) / "out")]) == 1
        assert list(Path(tmp).iterdir()) == [path]
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["stage"] == "config"
