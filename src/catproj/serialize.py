"""Versioned, reproducible file formats for sweep and tomography results.

Every file carries a schema line, the SHA-256 of the canonicalized run
config, and the RNG seed, so a result can always be traced back to the
exact inputs that produced it.  Numbers are written with 12 significant
digits and files are replaced atomically, which makes re-running a config
byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .fock import TruncationDim
from .tomography import ClickTable, TomographyRun

SCHEMA_MAJOR = 1
SCHEMA_MINOR = 0

CLICK_SCHEMA = "catproj/clicks"
SWEEP_SCHEMA = "catproj/sweep"
RECONSTRUCTION_SCHEMA = "catproj/reconstruction"
TOMOGRAPHY_SCHEMA = "catproj/tomography"
OPTIMIZE_SCHEMA = "catproj/optimize"

_CLICK_COLUMNS = ("probe_label", "re_amp", "im_amp", "outcome0_count", "outcome1_count", "shots")
_SWEEP_COLUMNS = (
    "c0sq",
    "alpha_sq",
    "phi",
    "f_dp",
    "f_hd",
    "f_pn",
    "beta_opt_re",
    "beta_opt_im",
    "x_th_opt",
    "lo_phase_opt",
)
_RECONSTRUCTION_COLUMNS = ("c0sq", "phi", "beta_re", "beta_im", "f_ideal", "f_raw", "f_compensated")


def format_float(x: float) -> str:
    """The one way numbers are printed: 12 significant decimal digits."""
    return f"{float(x):.12g}"


def canonical_config_text(config: dict) -> str:
    """Key-sorted, whitespace-free JSON; the hashing form of a config."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written file and a crash cannot corrupt an existing one."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_lines(schema: str, config: dict, seed: int, extra: dict | None = None) -> list[str]:
    lines = [
        f"# schema: {schema} {SCHEMA_MAJOR}.{SCHEMA_MINOR}",
        f"# config_sha256: {config_digest(config)}",
        f"# seed: {seed}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def _parse_header(lines: list[str], schema: str) -> tuple[dict, int]:
    """Return (metadata, index of first non-comment line)."""
    meta: dict = {}
    i = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition(":")
        meta[key.strip()] = value.strip()
    else:
        i = len(lines)
    if "schema" not in meta:
        raise ValueError("missing schema header line")
    _check_schema(meta["schema"], schema)
    return meta, i


def _check_schema(found: str, schema: str) -> None:
    """Raise ``ValueError`` unless ``found`` reads ``<schema> <major>.<minor>``
    with this code's major version."""
    name, _, version = found.rpartition(" ")
    if name != schema:
        raise ValueError(f"expected a {schema!r} file, found {found!r}")
    if version.partition(".")[0] != str(SCHEMA_MAJOR):
        raise ValueError(f"unsupported major schema version {version!r}")


def _write_csv(path, schema: str, config: dict, seed: int, columns, rows, extra=None) -> None:
    """Write the header, the column row and one line per row atomically;
    numbers go through ``format_float``, strings as they are."""
    lines = _header_lines(schema, config, seed, extra)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def probe_labels(amplitudes) -> list[str]:
    """Human-readable names for the standard probe order."""
    labels = []
    for i, _ in enumerate(amplitudes):
        if i < 2:
            labels.append("plus_alpha" if i == 0 else "minus_alpha")
        else:
            k = (i - 2) // 2 + 1
            labels.append(f"{'plus' if i % 2 == 0 else 'minus'}_i_gamma{k}")
    return labels


def write_click_table(path, table: ClickTable, config: dict, seed: int, extra: dict | None = None) -> None:
    amps = table.probe_amplitudes  # Python complex, as ClickTable stores them
    rows = zip(
        probe_labels(amps),
        (a.real for a in amps),
        (a.imag for a in amps),
        table.counts0,
        table.counts1,
        table.shots,
    )
    _write_csv(path, CLICK_SCHEMA, config, seed, _CLICK_COLUMNS, rows, extra)


def read_click_table(path) -> tuple[ClickTable, dict]:
    """Parse a click-table file back into a validated :class:`ClickTable`.

    The metadata holds the header fields and ``sha256``, the digest of the
    bytes that were parsed, which ties a result to its data file."""
    data = Path(path).read_bytes()
    lines = data.decode("utf-8").splitlines()
    meta, start = _parse_header(lines, CLICK_SCHEMA)
    meta["sha256"] = hashlib.sha256(data).hexdigest()
    body = [line for line in lines[start:] if line.strip()]
    if not body or tuple(body[0].split(",")) != _CLICK_COLUMNS:
        raise ValueError("missing or unexpected click-table column row")
    amps, counts0, counts1, shots = [], [], [], []
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(_CLICK_COLUMNS):
            raise ValueError(f"malformed row: {line!r}")
        amps.append(complex(float(cells[1]), float(cells[2])))
        counts0.append(float(cells[3]))
        counts1.append(float(cells[4]))
        shots.append(float(cells[5]))
    return ClickTable(tuple(amps), counts0, counts1, shots), meta


def write_sweep_csv(path, reports, config: dict, seed: int, extra: dict | None = None) -> None:
    rows = (
        (
            rep.spec.c0**2,
            rep.spec.alpha**2,
            rep.spec.phi,
            rep.f_dp,
            rep.f_hd,
            rep.f_pn,
            rep.beta_opt.real,
            rep.beta_opt.imag,
            rep.x_th_opt,
            rep.lo_phase_opt,
        )
        for rep in reports
    )
    _write_csv(path, SWEEP_SCHEMA, config, seed, _SWEEP_COLUMNS, rows, extra)


def write_reconstruction_csv(path, points, config: dict, seed: int, extra: dict | None = None) -> None:
    rows = (
        (p.c0sq, p.phi, p.displacement.real, p.displacement.imag, p.f_ideal, p.f_raw, p.f_compensated)
        for p in points
    )
    _write_csv(path, RECONSTRUCTION_SCHEMA, config, seed, _RECONSTRUCTION_COLUMNS, rows, extra)


def _rounded(value):
    """Round every float in a nested structure to the printed precision."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": _rounded(value.real), "im": _rounded(value.imag)}
    if isinstance(value, (float, np.floating)):
        return float(format_float(float(value)))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": _rounded(value.real), "im": _rounded(value.imag)}
        return [_rounded(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def tomography_payload(
    run: TomographyRun,
    dim: TruncationDim,
    config: dict,
    seed: int,
    bars: dict | None = None,
    clicks_sha256: str | None = None,
) -> dict:
    """JSON-ready dictionary for a tomography result at the configured cutoff
    ``dim``.  ``clicks_sha256``, the digest of an ingested click file, is
    written when given."""
    payload = {
        "schema": f"{TOMOGRAPHY_SCHEMA} {SCHEMA_MAJOR}.{SCHEMA_MINOR}",
        "config_sha256": config_digest(config),
        "seed": seed,
        "dim": dim.size,
        "alpha": run.probes.alpha,
        "gammas": list(run.probes.gammas),
        "f_odd": run.f_odd,
        "f_even": run.f_even,
        "phi": [v.values for v in run.phi],
        "psi": [v.values for v in run.psi],
        "expectations": dict(run.expectations),
        "povm": {"pi0": run.povm.pi0, "pi1": run.povm.pi1},
        "diagnostics": dict(run.povm.diagnostics or {}),
        "error_bars": {k: list(v) for k, v in bars.items()} if bars is not None else None,
    }
    if clicks_sha256 is not None:
        payload["clicks_sha256"] = clicks_sha256
    return _rounded(payload)


def optimize_payload(values: dict, config: dict) -> dict:
    """JSON-ready dictionary for a single-point optimizer report."""
    return {
        "schema": f"{OPTIMIZE_SCHEMA} {SCHEMA_MAJOR}.{SCHEMA_MINOR}",
        "config_sha256": config_digest(config),
        **{k: float(format_float(v)) for k, v in values.items()},
    }


def write_tomography_json(
    path,
    run: TomographyRun,
    dim: TruncationDim,
    config: dict,
    seed: int,
    bars: dict | None = None,
    clicks_sha256: str | None = None,
) -> None:
    payload = tomography_payload(run, dim, config, seed, bars, clicks_sha256)
    text = json.dumps(payload, sort_keys=True, indent=2)
    atomic_write_text(path, text + "\n")


def read_tomography_json(path) -> dict:
    """Load a file that ``write_tomography_json`` wrote.  A file that is not
    a JSON object, has any other schema name or major version, or lacks the
    two 2 x 2 POVM elements as ``{"re": ..., "im": ...}`` nested lists is
    rejected with a ``ValueError`` before the payload is used."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, found {type(payload).__name__}")
    schema = payload.get("schema", "")
    if not isinstance(schema, str):
        raise ValueError(f"schema must be a string, found {schema!r}")
    _check_schema(schema, TOMOGRAPHY_SCHEMA)
    povm = payload.get("povm")
    for name in ("pi0", "pi1"):
        element = povm.get(name) if isinstance(povm, dict) else None
        if not (isinstance(element, dict) and _is_2x2(element.get("re")) and _is_2x2(element.get("im"))):
            raise ValueError(f'povm.{name} must hold "re" and "im" as 2 x 2 lists of numbers')
    return payload


def _is_2x2(value) -> bool:
    """True for a 2 x 2 nested list of JSON numbers."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        return False
    return array.shape == (2, 2) and array.dtype.kind in "iuf"
