import hashlib
import json
import math
import os

import numpy as np
import pytest

from catproj.experiment import Campaign, ReconstructionPoint, apparatus_povm, draw_counts, expected_rates
from catproj.fidelity import SweepGrid, sweep
from catproj.fock import ScsMeasurementSpec, TruncationDim
from catproj.povm import DetectorModel
from catproj.serialize import (
    atomic_write_text,
    canonical_config_text,
    config_digest,
    format_float,
    probe_labels,
    read_click_table,
    read_tomography_json,
    tomography_payload,
    write_click_table,
    write_reconstruction_csv,
    write_sweep_csv,
    write_tomography_json,
)
from catproj.tomography import ProbeSet, error_bars, tomography_pipeline

DIM = TruncationDim(16)
ALPHA = 0.499
PROBES = ProbeSet(ALPHA, (0.2, 0.3))
CONFIG = {"preset": "none", "alpha": ALPHA, "seed": 11}


def sample_table():
    det = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
    truth = apparatus_povm(
        ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, math.pi / 2), 0.446106j, det, DIM
    )
    return draw_counts(expected_rates(truth, PROBES), Campaign(probes=PROBES, shots_per_probe=5000, rng_seed=11))


def test_format_float():
    assert format_float(0.1) == "0.1"
    assert format_float(math.pi) == "3.14159265359"
    assert format_float(1.0) == "1"
    assert format_float(np.float64(2.5e-7)) == "2.5e-07"


def test_config_digest_is_order_insensitive():
    a = {"alpha": 0.5, "seed": 3}
    b = {"seed": 3, "alpha": 0.5}
    assert canonical_config_text(a) == canonical_config_text(b)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"alpha": 0.5, "seed": 4})


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first\n")
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp litter
    with pytest.raises(FileNotFoundError):
        atomic_write_text(tmp_path / "missing" / "out.txt", "x")


def test_probe_labels():
    labels = probe_labels((0.5, -0.5, 0.2j, -0.2j, 0.3j, -0.3j))
    assert labels == [
        "plus_alpha",
        "minus_alpha",
        "plus_i_gamma1",
        "minus_i_gamma1",
        "plus_i_gamma2",
        "minus_i_gamma2",
    ]


def test_click_table_roundtrip(tmp_path):
    table = sample_table()
    path = tmp_path / "clicks.csv"
    write_click_table(path, table, CONFIG, seed=11, extra={"nmax": DIM.size - 1})
    loaded, meta = read_click_table(path)
    assert meta["config_sha256"] == config_digest(CONFIG)
    assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert meta["seed"] == "11"
    assert meta["nmax"] == str(DIM.size - 1)
    assert loaded.probe_amplitudes == table.probe_amplitudes
    assert np.array_equal(loaded.counts0, table.counts0)
    assert np.array_equal(loaded.shots, table.shots)


def test_click_table_writes_are_byte_identical(tmp_path):
    table = sample_table()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_click_table(a, table, CONFIG, seed=11)
    write_click_table(b, table, CONFIG, seed=11)
    assert a.read_bytes() == b.read_bytes()


def test_click_reader_rejects_corruption(tmp_path):
    table = sample_table()
    path = tmp_path / "clicks.csv"
    write_click_table(path, table, CONFIG, seed=11)
    lines = path.read_text().splitlines()

    # counts no longer sum to shots
    cells = lines[-1].split(",")
    cells[3] = format_float(float(cells[3]) + 10)
    (tmp_path / "bad_counts.csv").write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(ValueError):
        read_click_table(tmp_path / "bad_counts.csv")

    # unknown major schema version
    bumped = [lines[0].replace("1.0", "2.0")] + lines[1:]
    (tmp_path / "bad_version.csv").write_text("\n".join(bumped) + "\n")
    with pytest.raises(ValueError, match="major"):
        read_click_table(tmp_path / "bad_version.csv")

    # wrong file kind
    kind = [lines[0].replace("clicks", "sweep")] + lines[1:]
    (tmp_path / "bad_kind.csv").write_text("\n".join(kind) + "\n")
    with pytest.raises(ValueError, match="expected"):
        read_click_table(tmp_path / "bad_kind.csv")

    # missing header entirely
    (tmp_path / "headless.csv").write_text("\n".join(lines[3:]) + "\n")
    with pytest.raises(ValueError, match="schema"):
        read_click_table(tmp_path / "headless.csv")

    # short row
    (tmp_path / "short_row.csv").write_text("\n".join(lines[:-1] + ["plus_alpha,0.5"]) + "\n")
    with pytest.raises(ValueError, match="row"):
        read_click_table(tmp_path / "short_row.csv")


def test_sweep_csv_layout(tmp_path):
    grid = SweepGrid((0.5, 0.75), (0.25,), (0.0,))
    reports = sweep(grid, dim=TruncationDim(12))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, reports, CONFIG, seed=0)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: catproj/sweep 1.")
    assert f"# config_sha256: {config_digest(CONFIG)}" in lines
    header = lines[3].split(",")
    assert header[:4] == ["c0sq", "alpha_sq", "phi", "f_dp"]
    data = [line.split(",") for line in lines[4:]]
    assert len(data) == 2
    assert [float(row[0]) for row in data] == [0.5, 0.75]
    assert all(0.0 <= float(row[3]) <= 1.0 for row in data)


def test_reconstruction_csv_layout(tmp_path):
    point = ReconstructionPoint(
        c0sq=0.75, phi=0.0, displacement=0.5 + 0j, f_ideal=0.99, f_raw=0.9, f_compensated=0.95
    )
    path = tmp_path / "recon.csv"
    write_reconstruction_csv(path, [point], CONFIG, seed=4)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: catproj/reconstruction 1.")
    row = lines[-1].split(",")
    assert [float(v) for v in row] == [0.75, 0.0, 0.5, 0.0, 0.99, 0.9, 0.95]


def test_tomography_json_roundtrip(tmp_path):
    table = sample_table()
    run = tomography_pipeline(table, PROBES)
    bars = error_bars(run, 0.011)
    path = tmp_path / "tomo.json"
    write_tomography_json(path, run, DIM, CONFIG, seed=11, bars=bars)
    payload = read_tomography_json(path)

    assert payload["config_sha256"] == config_digest(CONFIG)
    assert payload["seed"] == 11
    assert payload["alpha"] == pytest.approx(ALPHA)
    pi0 = payload["povm"]["pi0"]
    assert np.array(pi0["re"]).shape == (2, 2)
    got = np.array(pi0["re"]) + 1j * np.array(pi0["im"])
    assert np.max(np.abs(got - run.povm.pi0)) < 1e-11  # printed at 12 digits
    assert set(payload["error_bars"]) == set(bars)
    assert payload["diagnostics"]["converged"] is True
    assert "clicks_sha256" not in payload  # written only for ingested clicks

    # byte-identical re-write
    other = tmp_path / "tomo2.json"
    write_tomography_json(other, run, DIM, CONFIG, seed=11, bars=bars)
    assert other.read_bytes() == path.read_bytes()

    # tampered major version is rejected
    payload["schema"] = "catproj/tomography 2.0"
    (tmp_path / "bumped.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="major"):
        read_tomography_json(tmp_path / "bumped.json")


@pytest.mark.parametrize(
    "text, problem",
    [
        ("[1, 2]", "JSON object, found list"),
        ('{"schema": 1}', "schema must be a string, found 1"),
        ('{"schema": "catproj/tomography 1.0"}', "povm.pi0 must hold"),
        (
            '{"schema": "catproj/tomography 1.0", "povm": {'
            '"pi0": {"re": [[NaN, 0], [0, Infinity]], "im": [[0, 0], [0, 0]]}, '
            '"pi1": {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}}',
            "povm.pi0 must hold .* finite numbers",
        ),
    ],
    ids=["not-an-object", "schema-not-a-string", "no-povm", "not-finite"],
)
def test_tomography_reader_rejects_malformed_payloads(tmp_path, text, problem):
    # a file that parses as JSON but is not a tomography payload fails at the
    # reader with a ValueError that names the problem
    path = tmp_path / "malformed.json"
    path.write_text(text + "\n")
    with pytest.raises(ValueError, match=problem):
        read_tomography_json(path)


def test_tomography_payload_rounds_floats():
    table = sample_table()
    run = tomography_pipeline(table, PROBES)
    payload = tomography_payload(run, DIM, CONFIG, seed=11)
    val = payload["expectations"]["im_plus"]
    assert val == float(format_float(val))
