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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catproj
from catproj import cli, experiment, fidelity, fock, tomography
from catproj.cli import _SCHEMA, COMMANDS, NMAX_CEILING, PRESETS, main, resolve_config, validate_config
from catproj.fidelity import optimize
from catproj.fock import ScsMeasurementSpec, TruncationDim
from catproj.povm import IDEAL_DETECTOR
from catproj.serialize import config_digest, read_click_table, write_click_table
from catproj.tomography import MAX_GAMMA, ClickTable, ProbeSet

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
        self.command = kw.get("command")


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
    report = optimize(ScsMeasurementSpec.from_c0sq(0.5, 0.75, 0.0), IDEAL_DETECTOR, TruncationDim(14))
    assert payload["f_dp"] == pytest.approx(report.f_dp, abs=1e-9)
    assert payload["beta_opt_re"] == pytest.approx(report.beta_opt.real, abs=1e-6)
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
    # the one JSON record on stderr, with no library warning ahead of it.
    # Both commands check alpha against the cutoff at stage config
    sweep_cfg = {"c0sq_values": [0.75], "alpha_sq_values": [0.25, 6.76], "phi_values": [0.0], "nmax": 10}
    sweep_path = write_config(tmp_path, sweep_cfg)
    optimize_path = write_config(tmp_path, {"alpha": 2.6, "c0sq": 0.5, "nmax": 10}, "opt.json")
    for argv, stage in (
        (["fidelity-sweep", "--config", sweep_path, "--out", str(tmp_path / "x.csv")], "config"),
        (["optimize", "--config", optimize_path], "config"),
    ):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        record = json.loads(lines[0])
        assert record["stage"] == stage
        assert "n_max=10" in record["message"]
    assert record["error"] == "CutoffTooSmallError"  # not an IndexError from an empty sweep
    assert not (tmp_path / "x.csv").exists()


def test_a_failed_sweep_point_is_its_own_sweep_record(tmp_path, monkeypatch):
    # the point's own exception reaches the record; it used to be wrapped in
    # a RuntimeError "1 grid points failed; first: injected"
    check = fidelity._check_report

    def picky(reports, *args):
        check(reports, *args)
        for report in reports:
            if round(report.spec.c0**2, 9) == 0.75:
                raise ArithmeticError("injected")

    monkeypatch.setattr(fidelity, "_check_report", picky)
    path = write_config(tmp_path, {"c0sq_values": [0.5, 0.75]})
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([*_FIG1B, "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    records = [json.loads(line) for line in stderr.getvalue().splitlines()]
    assert records == [{"error": "ArithmeticError", "stage": "sweep", "message": "injected"}]
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_an_amplitude_beyond_the_cutoff_fails_before_the_searches(tmp_path, capsys, monkeypatch):
    # the cat basis is built at stage config: the searches used to run on
    # alpha = 1e5 and print the homodyne form's warning ahead of the record
    def never(*args, **kwargs):
        raise AssertionError("a search ran on an amplitude the cutoff cannot hold")

    monkeypatch.setattr(fidelity, "_search_displacements", never)
    monkeypatch.setattr(fidelity, "_search_homodynes", never)
    path = write_config(tmp_path, {"alpha": 1e5})
    assert main(["optimize", "--config", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == "config", record
    assert "100000.0" in record["message"] and "n_max=20" in record["message"]


# a gamma of 1e200 is out of range, one config record in _OUT_OF_RANGE; the
# largest gamma in range still overflows the fig3 cutoff, which every run
# that simulates clicks checks at stage config (the sweep used to fail at
# stage reconstruct, after its search, and simulate at stage simulate)
_GAMMA_OVERFLOW = {"gammas": [0.2, MAX_GAMMA]}


@pytest.mark.parametrize(
    "argv, entry, amplitude",
    [
        (["simulate", "--preset", "fig3"], {"alpha": 1e200}, "1e+200"),
        (["simulate", "--preset", "fig3"], _GAMMA_OVERFLOW, str(1j * MAX_GAMMA)),
        (["tomography", "--preset", "fig3"], _GAMMA_OVERFLOW, str(1j * MAX_GAMMA)),
        (
            ["tomography", "--preset", "fig4"],
            {**_GAMMA_OVERFLOW, "c0sq_values": [0.5], "phi_values": [0.0]},
            str(1j * MAX_GAMMA),
        ),
    ],
    ids=["entry0-config", "entry1-config", "single-config", "sweep-config"],
)
def test_an_overflowing_probe_amplitude_is_one_cutoff_record(tmp_path, capsys, argv, entry, amplitude):
    path = write_config(tmp_path, entry)
    out = tmp_path / "never.csv"
    assert main([*argv, "--config", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == "config"
    assert amplitude in record["message"] and "n_max=" in record["message"]
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


def test_tomography_ingest_builds_no_apparatus(tmp_path, monkeypatch):
    # an ingesting run reads its clicks; the apparatus rates and the campaign
    # of the simulating path are built only when the run simulates
    def never(*args, **kwargs):
        raise AssertionError("an ingesting run built simulation inputs")

    (tmp_path / "clicks.csv").write_text("\n".join(fig3_click_lines()) + "\n")
    monkeypatch.setattr(cli, "apparatus_rates", never)
    monkeypatch.setattr(cli, "Campaign", never)
    path = write_config(tmp_path, {"clicks": str(tmp_path / "clicks.csv")})
    out = tmp_path / "out.json"
    with redirect_stdout(io.StringIO()):
        assert main(["tomography", "--preset", "fig3", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["clicks_sha256"]


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


def fig3_tomography(lines, tmp: Path, **config) -> tuple[int, list[str], list[Path]]:
    """Run ``tomography --preset fig3`` on a click table with these lines,
    and any further ``config`` keys: the exit code, the stderr lines and the
    files left in ``tmp``."""
    clicks = tmp / "clicks.csv"
    clicks.write_text("\n".join(lines) + "\n")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"clicks": str(clicks), **config}))
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        rc = main(["tomography", "--preset", "fig3", "--config", str(cfg), "--out", str(tmp / "out.json")])
    return rc, stderr.getvalue().splitlines(), sorted(tmp.iterdir())


def test_tomography_ingest_rejects_a_far_gamma_probe(tmp_path):
    # the series statistic divides the gamma_2 rows by 2 exp(-900), which
    # underflows: this used to print numpy's warning, then a reconstruct record
    lines = [
        line.replace("_gamma2,0,0.3,", "_gamma2,0,30,").replace("_gamma2,0,-0.3,", "_gamma2,0,-30,")
        for line in fig3_click_lines()
    ]
    assert sum("_gamma2,0,30," in line or "_gamma2,0,-30," in line for line in lines) == 2
    rc, records, _ = fig3_tomography(lines, tmp_path, gammas=[0.2, 30.0])
    assert rc == 1 and len(records) == 1, records
    record = json.loads(records[0])
    assert record["stage"] == "config" and "MAX_GAMMA" in record["message"], record
    assert not (tmp_path / "out.json").exists()


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


@pytest.mark.parametrize(
    "order", [(2, 3, 4, 5, 0, 1), (1, 0, 2, 3, 4, 5)], ids=["gammas-first", "alphas-swapped"]
)
def test_error_bars_follow_ingested_rows_by_amplitude(tmp_path, order):
    # the envelopes re-read the clicks at alpha -+ sigma; each row must keep
    # its own counts whatever order the file lists the rows in
    lines = list(fig3_click_lines())
    start = lines.index("probe_label,re_amp,im_amp,outcome0_count,outcome1_count,shots") + 1
    shuffled = lines[:start] + [lines[start + i] for i in order]
    payloads = []
    for name, table in (("canonical", lines), ("shuffled", shuffled)):
        (tmp_path / name).mkdir()
        rc, records, _ = fig3_tomography(table, tmp_path / name)
        assert rc == 0, records
        payloads.append(json.loads((tmp_path / name / "out.json").read_text()))
    canonical, reordered = payloads
    assert reordered["povm"] == canonical["povm"]
    assert reordered["error_bars"] == canonical["error_bars"]


def test_tomography_with_error_bars_fits_the_clicks_once(tmp_path, monkeypatch):
    # the statistics and the box fits read no alpha, so the envelopes at
    # alpha -+ sigma reuse the central run's: one statistic per series and
    # one fit per series and outcome, as a run without error bars makes
    counts = {"statistics": 0, "fits": 0}
    statistics, series_fits = tomography._statistics, tomography._series_fits

    def counted_statistics(*args):
        stack = statistics(*args)
        counts["statistics"] += len(stack)  # one statistic per series
        return stack

    def counted_fits(f, *args):
        counts["fits"] += len(f)  # one row per outcome
        return series_fits(f, *args)

    monkeypatch.setattr(tomography, "_statistics", counted_statistics)
    monkeypatch.setattr(tomography, "_series_fits", counted_fits)
    out = tmp_path / "fig3.json"
    with redirect_stdout(io.StringIO()):
        assert main(["tomography", "--preset", "fig3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["error_bars"] is not None
    assert counts == {"statistics": 2, "fits": 4}


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


_GOLDEN_CLICKS = Path(__file__).parent / "golden" / "simulate-fig3" / "files" / "sim.csv"
_COLUMN_ROW = "probe_label,re_amp,im_amp,outcome0_count,outcome1_count,shots"


@st.composite
def _mutated_click_files(draw):
    """The lines of the golden fig3 click file with one mutation: a bad
    field, a dropped or duplicated line, or extreme counts that still add up
    to their shots, in one row or scaled in every row."""
    lines = _GOLDEN_CLICKS.read_text().splitlines()
    start = lines.index(_COLUMN_ROW) + 1
    kind = draw(st.sampled_from(["field", "drop", "duplicate", "row-counts", "scaled-counts"]))
    if kind == "field":
        row = draw(st.integers(start - 1, len(lines) - 1))
        cells = lines[row].split(",")
        token = draw(st.sampled_from(["", "nan", "inf", "-inf", "1e309", "-1", "0.5", "1e3", "abc", "0x10", "1,2"]))
        cells[draw(st.integers(0, len(cells) - 1))] = token
        lines[row] = ",".join(cells)
    elif kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "duplicate":
        row = draw(st.integers(0, len(lines) - 1))
        lines.insert(row, lines[row])
    elif kind == "row-counts":
        row = draw(st.integers(start, len(lines) - 1))
        shots = draw(st.sampled_from([1, 2, 3, 10**6, 2**53, 2**63, 10**20, 10**300]))
        count0 = draw(st.sampled_from([0, 1, shots // 2, shots - 1, shots]))
        lines[row] = ",".join(lines[row].split(",")[:3] + [str(count0), str(shots - count0), str(shots)])
    else:
        scale = draw(st.sampled_from([10**3, 10**15, 10**100, 10**300]))
        for row in range(start, len(lines)):
            cells = lines[row].split(",")
            lines[row] = ",".join(cells[:3] + [str(int(cell) * scale) for cell in cells[3:]])
    return lines


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lines=_mutated_click_files())
def test_a_mutated_click_file_passes_or_is_one_ingest_record(lines):
    with tempfile.TemporaryDirectory() as tmp:
        rc, records, files = fig3_tomography(lines, Path(tmp))
        if rc == 0:
            assert records == [] and Path(tmp, "out.json") in files
        else:
            assert rc == 1 and len(records) == 1, records
            assert json.loads(records[0])["stage"] == "ingest", records
            assert Path(tmp, "out.json") not in files


def test_an_ingesting_tomography_run_needs_no_cutoff(tmp_path, capsys):
    # the 2x2 reconstruction builds no Fock vector, so a cutoff that cannot
    # hold alpha = 0.499 (tail mass 2.1e-3 at n_max = 2) reconstructs the
    # golden fig3 clicks exactly as n_max = 24 does
    path = write_config(tmp_path, {"clicks": str(_GOLDEN_CLICKS)})
    payloads = {}
    for nmax in (2, 24):
        out = tmp_path / f"nmax{nmax}.json"
        argv = ["tomography", "--preset", "fig3", "--config", path, "--nmax", str(nmax), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        payloads[nmax] = json.loads(out.read_text())
    assert payloads[2]["error_bars"] is not None
    for key in ("povm", "phi", "psi", "expectations", "error_bars"):
        assert payloads[2][key] == payloads[24][key], key


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

    # row r is seeded with seed + r: a sweep that would run past the
    # 64-bit seed range fails before any point is computed
    capsys.readouterr()
    late = tmp_path / "late.csv"
    assert main(["tomography", "--config", path, "--seed", str(2**64 - 1), "--out", str(late)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config"
    assert "64-bit" in record["message"]
    assert not late.exists()


def test_tomography_sweep_checks_its_grid_once(tmp_path, monkeypatch):
    # the plan is the one place that checks each row's spec and the menu, at
    # stage config; the sweep it runs checks neither again
    specs, menus = [], []
    from_c0sq = ScsMeasurementSpec.from_c0sq.__func__
    menu_levels = experiment._menu_levels

    def counted_spec(cls, *args):
        specs.append(args)
        return from_c0sq(cls, *args)

    def counted_menu(*args):
        menus.append(args)
        return menu_levels(*args)

    monkeypatch.setattr(ScsMeasurementSpec, "from_c0sq", classmethod(counted_spec))
    monkeypatch.setattr(experiment, "_menu_levels", counted_menu)
    cfg = {
        **{k: v for k, v in SIM_CONFIG.items() if k not in ("c0sq", "phi", "drive_amplitude", "drive_phase")},
        "mode": "sweep",
        "c0sq_values": [0.6, 1.0],
        "phi_values": [0.0, 0.4],
        "schedule": [0.0, 0.5],
    }
    path = write_config(tmp_path, cfg)
    with redirect_stdout(io.StringIO()):
        assert main(["tomography", "--config", path, "--out", str(tmp_path / "recon.csv")]) == 0
    assert sorted(specs) == sorted((0.499, c, p) for c in (0.6, 1.0) for p in (0.0, 0.4))
    assert len(menus) == 1


def test_tomography_sweep_derives_probe_constants_once_per_probe_set_and_call(tmp_path, monkeypatch):
    # each call builds its raw and its compensated probe set, and each set
    # derives its series matrices (one per parity) and probe states once for
    # all rows; a second identical call in the same process derives them
    # again, so no cache carries them from one call to the next
    counts = {"probe_coefficients": 0, "gamma_matrix": 0}
    for name in counts:
        real = getattr(tomography, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tomography, name, counted)
    path = write_config(tmp_path, {"c0sq_values": [0.6, 0.8, 1.0], "phi_values": [0.0, 0.4], "schedule": [0.0, 0.5]})
    per_call = []
    for _ in range(2):
        before = dict(counts)
        with redirect_stdout(io.StringIO()):
            assert main(["tomography", "--preset", "fig4", "--config", path, "--out", str(tmp_path / "r.csv")]) == 0
        per_call.append({name: counts[name] - before[name] for name in counts})
    assert per_call == [{"probe_coefficients": 2, "gamma_matrix": 4}] * 2


def test_tomography_sweep_guards_a_schedule_level_beyond_the_cutoff(tmp_path, capsys):
    # every menu level passes the guard the sweep applies to its D at stage
    # config, so an amplitude the cutoff cannot hold stops the sweep before
    # any point is searched or simulated
    path = write_config(tmp_path, {"schedule": [2.5], "c0sq_values": [0.5, 0.6]})
    out = tmp_path / "never.csv"
    assert main(["tomography", "--preset", "fig4", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["error"] == "CutoffTooSmallError" and record["stage"] == "config"
    assert "unitarity defect" in record["message"] and "n_max=24" in record["message"]
    assert not out.exists()


def test_tomography_sweep_rejects_an_empty_schedule_at_config(tmp_path, capsys):
    path = write_config(tmp_path, {"schedule": [], "c0sq_values": [0.5]})
    out = tmp_path / "never.csv"
    assert main(["tomography", "--preset", "fig4", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config" and "schedule must not be empty" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("key", ["c0sq_values", "phi_values"])
def test_tomography_sweep_rejects_an_empty_axis_at_config(key, tmp_path, capsys):
    path = write_config(tmp_path, {key: []})
    out = tmp_path / "never.csv"
    assert main(["tomography", "--preset", "fig4", "--config", path, "--out", str(out)]) == 1
    record = last_error(capsys)
    assert record["stage"] == "config" and f"{key} must not be empty" in record["message"]
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


_SIMULATE = ["simulate", "--preset", "fig3"]
_SINGLE = ["tomography", "--preset", "fig3"]
_SWEEP = ["tomography", "--preset", "fig4"]
_FIG1B = ["fidelity-sweep", "--preset", "fig1b"]
# (command line, out-of-range entry, a fragment of the message) for every
# command that reads the key
_OUT_OF_RANGE = [
    *((argv, {"c0sq": v}, "c0sq") for argv in (["optimize"], _SIMULATE, _SINGLE) for v in (1.5, -3)),
    *(
        (argv, {key: v}, key)
        for argv in (_FIG1B, ["optimize"], _SIMULATE, _SINGLE, _SWEEP, ["selftest"])
        for key, v in (("eta", 2), ("visibility", 1.5), ("nu", 1))
    ),
    *((argv, {"shots": v}, "shots") for argv in (_SIMULATE, _SINGLE, _SWEEP) for v in (0, 2**63, 10**20)),
    *((argv, {"alpha": 1e-300}, "MIN_ALPHA") for argv in (["optimize"], _SIMULATE, _SINGLE, _SWEEP)),
    *((_FIG1B, {"alpha_sq_values": [v]}, "MIN_ALPHA") for v in (1e-300, 1e-9)),
    # the loss-compensated probes sqrt(eta) * alpha fall below MIN_ALPHA
    *((_SWEEP, entry, "MIN_ALPHA") for entry in ({"eta": 0}, {"eta": 1e-9}, {"alpha": 1e-4})),
    *((argv, {"alpha": v}, "n_max=") for argv in (["optimize"], _SWEEP) for v in (1e3, 1e300)),
    *((_FIG1B, {"alpha_sq_values": [v]}, "n_max=20") for v in (40.0, 1e300)),
    # a menu level beyond the guard; at n_max 12 the default menu's top level 0.771
    *((_SWEEP, entry, "unitarity defect") for entry in ({"schedule": [1e300]}, {"schedule": [3.0]}, {"nmax": 12})),
    *((argv, {"gammas": [0.2, v]}, "MAX_GAMMA") for argv in (_SIMULATE, _SINGLE, _SWEEP) for v in (6.0, 1e200)),
    *((argv, {"gammas": [0.2, 0.2]}, "distinct") for argv in (_SIMULATE, _SINGLE, _SWEEP)),
    *(
        (argv, {"gammas": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]}, "1 to 6 gamma")
        for argv in (_SIMULATE, _SINGLE, _SWEEP)
    ),
    *((argv, {"c0sq_values": [1.5]}, "c0sq") for argv in (_FIG1B, _SWEEP)),
    # 11 c0sq rows at each of 2 phi: the 22 rows' seeds pass 2^64 - 1
    (_SWEEP, {"seed": 2**64 - 11, "phi_values": [0.0, 0.1]}, "64-bit"),
    *((_SINGLE, {"error_bars_sigma": v}, "error_bars_sigma") for v in (0.499, 0.6)),
]


@pytest.mark.parametrize(
    "argv, entry, fragment",
    _OUT_OF_RANGE,
    ids=["-".join(argv[::2]) + "-{}={}".format(*next(iter(entry.items()))) for argv, entry, _ in _OUT_OF_RANGE],
)
def test_an_out_of_range_value_is_one_config_record(tmp_path, argv, entry, fragment):
    # each value used to pass (c0sq clamped into [0, 1], a c0sq_values row
    # labelled 1.5 scored as c0^2 = 1) or to fail at a later stage
    path = write_config(tmp_path, entry)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 1
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["stage"] == "config" and fragment in record["message"], record
    assert list(tmp_path.iterdir()) == [Path(path)]


@pytest.mark.parametrize("entry", [{"alpha": -1}, {"gammas": [0.2, 0.2]}], ids=["alpha", "gammas"])
def test_a_key_the_command_never_reads_is_one_config_record(tmp_path, entry):
    # each run used to exit 0 and hash the ignored key into its output
    path = write_config(tmp_path, entry)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([*_FIG1B, "--config", path, "--out", str(tmp_path / "out.csv")]) == 1
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["stage"] == "config", record
    assert record["message"] == f"config key {next(iter(entry))!r} is not read by fidelity-sweep"
    assert list(tmp_path.iterdir()) == [Path(path)]


@pytest.mark.parametrize(
    "argv, entry",
    [
        (_SIMULATE, {"schedule": [1e300]}),
        (_SINGLE, {"schedule": [1e300]}),
        (["tomography", "--preset", "fig5"], {"schedule": [1e300]}),
        (["tomography", "--preset", "fig5"], {"schedule": [], "quantize": False}),
    ],
    ids=["simulate", "single", "unquantized", "unquantized-empty"],
)
def test_a_schedule_outside_a_quantized_sweep_is_one_config_record(tmp_path, argv, entry):
    # only a quantized tomography sweep reads the menu; each run used to exit
    # 0 and hash the unused key, or fail on an empty menu it never reads
    path = write_config(tmp_path, entry)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 1
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert record["stage"] == "config" and "config key 'schedule'" in record["message"], record
    assert list(tmp_path.iterdir()) == [Path(path)]


_OTHER_RUN_KIND = [
    *(
        (_SWEEP, {key: value, "c0sq_values": [0.5]}, "quantized sweep")
        for key, value in (
            ("c0sq", 0.5),
            ("phi", 0.1),
            ("drive_amplitude", 1e300),
            ("drive_phase", 0.0),
            ("clicks", "nonexistent.csv"),
            ("error_bars_sigma", 0.01),
        )
    ),
    *(
        (_SINGLE, {key: value}, "single run")
        for key, value in (("c0sq_values", [0.5]), ("phi_values", [0.0]), ("quantize", False))
    ),
]


@pytest.mark.parametrize(
    "argv, entry, kind",
    _OTHER_RUN_KIND,
    ids=["-".join(argv[::2]) + "-" + next(iter(entry)) for argv, entry, _ in _OTHER_RUN_KIND],
)
def test_a_key_only_the_other_tomography_run_reads_is_one_config_record(tmp_path, argv, entry, kind):
    # each run used to exit 0 and hash the ignored key into its output (a
    # sweep given clicks simulated instead of ingesting them)
    path = write_config(tmp_path, entry)
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 1
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    key = next(iter(entry))
    assert record["stage"] == "config", record
    assert record["message"] == f"config key {key!r} is not read by a tomography {kind}", record
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_every_command_rejects_each_key_it_never_reads():
    # a key of the right type is still refused by a command that would
    # ignore it; preset keys and flags are not checked
    assert all(readers <= set(COMMANDS) for _, _, readers in _SCHEMA.values())
    typed = {str: "x", bool: True, int: 1, list: [0.5], (int, float): 0.5}
    for command in COMMANDS:
        for key, (want, _, readers) in _SCHEMA.items():
            if command not in readers:
                with pytest.raises(ValueError, match=f"not read by {command}"):
                    validate_config({key: typed[want]}, command)
            else:
                assert validate_config({key: typed[want]}, command) == {key: typed[want]}
    cfg = resolve_config(FakeArgs(command="optimize", preset="fig3", seed=5, nmax=14))
    assert cfg["gammas"] == [0.2, 0.3] and cfg["seed"] == 5


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


_NUMBER_KEYS = sorted(k for k, (want, *_) in _SCHEMA.items() if want == (int, float))
_INT_KEYS = sorted(k for k, (want, *_) in _SCHEMA.items() if want is int)
_LIST_KEYS = sorted(k for k, (want, *_) in _SCHEMA.items() if want is list)
_TEXT_KEYS = sorted(k for k, (want, *_) in _SCHEMA.items() if want is str)
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
    # only keys the command reads, so an unread-key record does not mask the drawn entry
    cfg = {k: v for k, v in {"alpha": 0.5, "c0sq": 0.75}.items() if base and command in _SCHEMA[k][2]}
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


_EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-9, 1e-4, 1e3, 1e300]
_EXTREME_INTS = [-1, 0, 1, 2**63, 2**64]
# each command line with a one-point grid, which a drawn entry may replace,
# so that a run the entry does not stop stays cheap
_RUNS = [
    (_FIG1B, {"c0sq_values": [0.5]}),
    (["optimize"], {}),
    (_SIMULATE, {}),
    (_SINGLE, {}),
    (_SWEEP, {"c0sq_values": [0.5]}),
    (["selftest"], {}),
]


@st.composite
def _extreme_runs(draw):
    """A command line and its config, with one key the command reads set to
    a well-typed extreme value."""
    argv, base = draw(st.sampled_from(_RUNS))
    key = draw(
        st.sampled_from(
            sorted(k for k, (want, _, readers) in _SCHEMA.items() if argv[0] in readers and want is not str)
        )
    )
    want = _SCHEMA[key][0]
    if want is list:
        # sorted, as every grid axis must be
        value = draw(st.lists(st.sampled_from(_EXTREME_FLOATS), max_size=7).map(sorted))
    elif want is int:
        value = draw(st.sampled_from(_EXTREME_INTS))
    elif want is bool:
        value = draw(st.booleans())
    else:
        value = draw(st.sampled_from(_EXTREME_FLOATS))
    return argv, {**base, key: value}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(run=_extreme_runs())
@example(run=(_SWEEP, {"c0sq_values": [0.5], "schedule": [1e300]}))
@example(run=(_FIG1B, {"c0sq_values": [0.5], "alpha_sq_values": [1e300]}))
def test_an_extreme_value_passes_or_is_one_config_record(run):
    # whatever the config alone decides fails at stage config; the selftest
    # battery checks its own cutoff, so it may fail at its own stage.  The
    # two examples used to fail at stages reconstruct and sweep
    argv, cfg = run
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            rc = main([*argv, "--config", str(path), "--out", str(Path(tmp) / "out")])
        left = sorted(Path(tmp).iterdir())
    lines = stderr.getvalue().splitlines()
    if rc == 0:
        assert lines == []
        return
    assert rc == 1 and len(lines) == 1, lines
    assert left == [path]
    stage = json.loads(lines[0])["stage"]
    assert stage == "config" or argv == ["selftest"] and stage == "selftest", lines
