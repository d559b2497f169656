"""Command-line front end: sweeps, simulated campaigns, tomography, self-tests.

Configuration is a flat JSON object; figure presets supply the published
operating points as named defaults, a ``--config`` file overrides the
preset, and command-line flags override both.  ``_SCHEMA`` is the one table
of every key's accepted type, its default and the commands that read it; a
``--config`` key that the command (or kind of tomography run) never reads
is rejected, while preset keys and flags are not checked.  Each command
builds every object it uses at stage ``config``, so a bad value, whatever
its key and whatever the command, fails there; a search plan checks every
alpha against the cutoff.  Every failure is reported as a one-line JSON
record on stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    Campaign,
    ReconstructionPlan,
    apparatus_povm,
    apparatus_rates,
    default_displacement_schedule,
    draw_counts,
    effective_displacement,
    expected_rates,
    reconstruction_sweep,
)
from .fidelity import (
    SearchPlan,
    SweepGrid,
    _click_form,
    _contrast,
    displaced_povm,
    fidelity,
    optimized_reports,
)
from .fock import (
    ScsMeasurementSpec,
    TruncationDim,
    displacement_defect,
    scs_basis_project,
)
from .povm import DetectorModel, povm_entry_bound_check, random_povm_pair
from .serialize import (
    atomic_write_text,
    format_float,
    optimize_payload,
    read_click_table,
    write_click_table,
    write_reconstruction_csv,
    write_sweep_csv,
    write_tomography_json,
)
from .tomography import (
    ClickTable,
    ProbeSet,
    ScsPovm,
    _check_error_bar_width,
    _match_probe_rows,
    error_bars,
    povm_pair_fidelity,
    tomography_pipeline,
)

# the commands that read a key; tomography's runs count as one command, which
# reads every key but alpha_sq_values (each kind of run: _check_run_kind)
_EVERY = frozenset({"fidelity-sweep", "optimize", "simulate", "tomography", "selftest"})
_POINT = frozenset({"optimize", "simulate", "tomography"})
_GRID = frozenset({"fidelity-sweep", "tomography"})
_CLICKS = frozenset({"simulate", "tomography"})

# every key a config file may contain: (accepted value shape, default, the
# commands that read it), where a default of None means the key has none
_SCHEMA: dict[str, tuple] = {
    "mode": (str, "single", {"tomography"}),  # "single" or "sweep"
    "alpha": ((int, float), 0.499, _POINT),
    "c0sq": ((int, float), 0.5, _POINT),
    "phi": ((int, float), 0.0, _POINT),
    "c0sq_values": (list, (), _GRID),
    "alpha_sq_values": (list, (), {"fidelity-sweep"}),
    "phi_values": (list, (0.0,), _GRID),
    "eta": ((int, float), 1.0, _EVERY),
    "nu": ((int, float), 0.0, _EVERY),
    "visibility": ((int, float), 1.0, _EVERY),
    "drive_amplitude": ((int, float), 0.0, _CLICKS),
    "drive_phase": ((int, float), 0.0, _CLICKS),
    "gammas": (list, (0.2, 0.3), _CLICKS),
    "shots": (int, 200_000, _CLICKS),
    "seed": (int, 0, _GRID | _CLICKS),
    "nmax": (int, 20, _EVERY),
    "schedule": (list, None, {"tomography"}),  # a quantized sweep's only; its default is computed
    "quantize": (bool, True, {"tomography"}),
    "clicks": (str, None, {"tomography", "selftest"}),
    "error_bars_sigma": ((int, float), 0.0, {"tomography"}),
    "out": (str, None, _EVERY - {"selftest"}),
}


class Config(dict):
    """A validated config; a key it does not hold reads as its ``_SCHEMA`` default."""

    def __missing__(self, key):
        return _SCHEMA[key][1]


# largest accepted Fock cutoff: the displacement guard scan holds about
# 125 (n_max + 1)^2 complex entries, about 51 MB at 100 and 5 GB at 1000,
# while the presets use 20-24
NMAX_CEILING = 100


def _grid(start: float, stop: float, step: float) -> list[float]:
    return [round(v, 10) for v in np.arange(start, stop + step / 2, step)]


_LAB = {"eta": 0.689, "nu": 5.32e-5, "visibility": 0.998}

PRESETS: dict[str, dict] = {
    "fig1b": {
        "c0sq_values": _grid(0.0, 1.0, 0.05),
        "alpha_sq_values": [0.25],
        "phi_values": [0.0],
        "nmax": 20,
        "seed": 0,
    },
    "fig1d": {
        "c0sq_values": _grid(0.5, 1.0, 0.05),
        "alpha_sq_values": _grid(0.1, 2.3, 0.1),
        "phi_values": [0.0],
        "nmax": 20,
        "seed": 0,
    },
    "fig3": {
        "mode": "single",
        "alpha": 0.499,
        "c0sq": 0.5,
        "phi": round(math.pi / 2, 10),
        "drive_amplitude": 0.894,
        "drive_phase": round(math.pi / 2, 10),
        "gammas": [0.2, 0.3],
        "shots": 200_000,
        "seed": 7,
        "nmax": 24,
        "error_bars_sigma": 0.011,
        **_LAB,
    },
    "fig4": {
        "mode": "sweep",
        "alpha": 0.499,
        "c0sq_values": _grid(0.5, 1.0, 0.05),
        "phi_values": [0.0],
        "gammas": [0.2, 0.3],
        "shots": 200_000,
        "seed": 7,
        "nmax": 24,
        "quantize": True,
        **_LAB,
    },
    "fig5": {
        "mode": "sweep",
        "alpha": 0.499,
        "c0sq_values": _grid(0.5, 1.0, 0.1),
        "phi_values": [0.0, 0.393, 0.787, 1.18, round(math.pi / 2, 10)],
        "gammas": [0.2, 0.3],
        "shots": 200_000,
        "seed": 7,
        "nmax": 24,
        "quantize": False,
        **_LAB,
    },
}


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage: str, err: BaseException):
        super().__init__(f"{stage}: {err}")
        self.stage = stage
        self.err = err


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(name, err) from err


def _finite_number(value) -> bool:
    """An int, or a finite float; JSON true/false are ints to Python and do not count."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def validate_config(cfg: dict, command: str | None = None) -> dict:
    """``cfg`` itself, once every key is known and holds a value of its
    type; with a ``command``, every key must also be one that it reads."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        want, _, readers = _SCHEMA[key]
        if command is not None and command not in readers:
            raise ConfigError(f"config key {key!r} is not read by {command}")
        if isinstance(value, bool) and want is not bool or not isinstance(value, want):
            raise ConfigError(f"config key {key!r} has the wrong type")
        if want in (str, bool):
            continue
        if not all(map(_finite_number, value if want is list else [value])):
            raise ConfigError(f"config key {key!r} must hold finite numbers only")
    if "nmax" in cfg and not 1 <= cfg["nmax"] <= NMAX_CEILING:
        raise ConfigError(f"nmax must lie in [1, {NMAX_CEILING}], got {cfg['nmax']}")
    return cfg


def _check_run_kind(keys, cfg: Config) -> None:
    """Reject a config key that only the other kind of tomography run reads
    (``schedule``: only a quantized sweep reads it)."""
    if cfg["mode"] not in ("single", "sweep"):
        raise ConfigError(f"mode must be 'single' or 'sweep', got {cfg['mode']!r}")
    kind = "single run" if cfg["mode"] == "single" else "quantized sweep" if cfg["quantize"] else "sweep"
    single = ("c0sq", "phi", "drive_amplitude", "drive_phase", "clicks", "error_bars_sigma")
    unread = {"single run": ("c0sq_values", "phi_values", "quantize", "schedule"), "sweep": (*single, "schedule")}
    for key in keys:
        if key in unread.get(kind, single):  # a quantized sweep reads every sweep key
            raise ConfigError(f"config key {key!r} is not read by a tomography {kind}")


def resolve_config(args: argparse.Namespace) -> Config:
    cfg: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        cfg.update(PRESETS[args.preset])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        # preset keys are exempt: simulate and tomography share presets
        cfg.update(validate_config(loaded, args.command))
        if args.command == "tomography":
            _check_run_kind(loaded, Config(cfg))
    for key in ("seed", "nmax", "out"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return Config(validate_config(cfg))


def _detector(cfg: Config) -> DetectorModel:
    return DetectorModel(eta=float(cfg["eta"]), nu=float(cfg["nu"]), visibility=float(cfg["visibility"]))


def _out_path(cfg: Config) -> Path:
    if cfg["out"] is None:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    return Path(cfg["out"])


def _probes(cfg: Config) -> ProbeSet:
    return ProbeSet(float(cfg["alpha"]), tuple(float(g) for g in cfg["gammas"]))


def _spec(cfg: Config) -> ScsMeasurementSpec:
    return ScsMeasurementSpec.from_c0sq(float(cfg["alpha"]), float(cfg["c0sq"]), float(cfg["phi"]))


def _campaign(cfg: Config) -> Campaign:
    """Acquisition plan implied by a config."""
    return Campaign(
        probes=_probes(cfg),
        shots_per_probe=cfg["shots"],
        detector=_detector(cfg),
        rng_seed=cfg["seed"],
    )


def _truth_campaign(cfg: Config, dim: TruncationDim):
    """The apparatus's closed-form probe rates plus the acquisition plan
    implied by a config; the guarded D(shift), the targets and the cutoff of
    every probe amplitude are checked on the way."""
    detector = _detector(cfg)
    drive = float(cfg["drive_amplitude"]) * np.exp(1j * float(cfg["drive_phase"]))
    campaign = _campaign(cfg)
    rates = apparatus_rates(_spec(cfg), effective_displacement(drive, detector), detector, dim, campaign.probes)
    return rates, campaign


def _meta(dim: TruncationDim) -> dict:
    return {
        "nmax": dim.n_max,
        "version": __version__,
        "convention": "outcome 0 targets c0*C+ + c1*exp(i*phi)*C-",
    }


def _hashable(cfg: dict) -> dict:
    """The config as hashed into outputs: computation inputs only, not
    routing details, so re-running to a different path stays byte-identical."""
    return {k: v for k, v in cfg.items() if k != "out"}


def cmd_fidelity_sweep(cfg: Config) -> int:
    """Optimize the three strategies over a parameter grid, write CSV."""
    with _stage("config"):
        grid = SweepGrid(tuple(cfg["c0sq_values"]), tuple(cfg["alpha_sq_values"]), tuple(cfg["phi_values"]))
        plan = SearchPlan(grid.specs(), _detector(cfg), TruncationDim(cfg["nmax"]))
        out = _out_path(cfg)
    with _stage("sweep"):
        reports = optimized_reports(plan)
    with _stage("write"):
        write_sweep_csv(out, reports, _hashable(cfg), cfg["seed"], extra=_meta(plan.dim))
    print(f"wrote {len(reports)} rows to {out}")
    return 0


def cmd_optimize(cfg: Config) -> int:
    """Single-point optimization report (JSON)."""
    with _stage("config"):
        spec = _spec(cfg)
        plan = SearchPlan((spec,), _detector(cfg), TruncationDim(cfg["nmax"]))
    with _stage("optimize"):
        (report,) = optimized_reports(plan)
    values = {
        "alpha": spec.alpha,
        "c0sq": spec.c0**2,
        "phi": spec.phi,
        "f_dp": report.f_dp,
        "f_hd": report.f_hd,
        "f_pn": report.f_pn,
        "beta_opt_re": report.beta_opt.real,
        "beta_opt_im": report.beta_opt.imag,
        "x_th_opt": report.x_th_opt,
        "lo_phase_opt": report.lo_phase_opt,
    }
    text = json.dumps(optimize_payload(values, _hashable(cfg)), sort_keys=True, indent=2)
    if cfg["out"] is not None:
        with _stage("write"):
            atomic_write_text(cfg["out"], text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(cfg: Config) -> int:
    """Generate a seeded click table from an apparatus model, write CSV."""
    with _stage("config"):
        dim = TruncationDim(cfg["nmax"])
        out = _out_path(cfg)
        rates, campaign = _truth_campaign(cfg, dim)
    with _stage("simulate"):
        table = draw_counts(rates, campaign)
    with _stage("write"):
        write_click_table(out, table, _hashable(cfg), campaign.rng_seed, extra=_meta(dim))
    print(f"wrote {len(table.probe_amplitudes)} probe rows to {out}")
    return 0


def cmd_tomography(cfg: Config) -> int:
    """Simulate or ingest clicks, reconstruct the POVM, write JSON/CSV."""
    if cfg["mode"] == "sweep":
        return _tomography_sweep(cfg)
    with _stage("config"):
        dim = TruncationDim(cfg["nmax"])
        out = _out_path(cfg)
        probes = _probes(cfg)
        sigma = float(cfg["error_bars_sigma"])
        _check_error_bar_width(probes.alpha, sigma)
        if cfg["clicks"] is None:
            rates, campaign = _truth_campaign(cfg, dim)
    clicks_sha256 = None
    if cfg["clicks"] is not None:
        with _stage("ingest"):
            table, clicks_meta = read_click_table(cfg["clicks"])
            table = _match_probe_rows(table, probes)
            clicks_sha256 = clicks_meta["sha256"]
    else:
        with _stage("simulate"):
            table = draw_counts(rates, campaign)
    with _stage("reconstruct"):
        run = tomography_pipeline(table, probes)
        bars = error_bars(run, sigma) if sigma > 0.0 else None
    with _stage("write"):
        write_tomography_json(out, run, dim, _hashable(cfg), cfg["seed"], bars, clicks_sha256)
    pi0 = run.povm.pi0
    print(
        f"reconstructed pi0 diag=({format_float(pi0[0, 0].real)}, "
        f"{format_float(pi0[1, 1].real)}) offdiag_im={format_float(pi0[0, 1].imag)} -> {out}"
    )
    return 0


def _tomography_sweep(cfg: Config) -> int:
    with _stage("config"):
        dim = TruncationDim(cfg["nmax"])
        out = _out_path(cfg)
        menu = cfg.get("schedule", default_displacement_schedule) if cfg["quantize"] else None
        plan = ReconstructionPlan(_campaign(cfg), cfg["c0sq_values"], cfg["phi_values"], dim, menu)
    with _stage("reconstruct"):
        points = reconstruction_sweep(plan)
    with _stage("write"):
        write_reconstruction_csv(out, points, _hashable(cfg), cfg["seed"], extra=_meta(dim))
    print(f"wrote {len(points)} reconstruction rows to {out}")
    return 0


def _selftest_checks(dim: TruncationDim):
    """(name, tolerance, residual) triples covering the core invariants."""
    spec = ScsMeasurementSpec.from_c0sq(0.499, 0.5, math.pi / 2)
    lab = DetectorModel(**_LAB)

    unitarity = displacement_defect(0.5, dim)

    pair = displaced_povm(spec, 0.894j, lab, dim)
    completeness = pair.validate()["completeness"]

    rng = np.random.default_rng(0)
    bound = 0.0
    small = TruncationDim(8)
    for _ in range(20):
        sample = random_povm_pair(small, rng)
        for el in (sample.pi0, sample.pi1):
            ok, top = povm_entry_bound_check(el)
            bound = max(bound, 0.0 if ok else top - 1.0)

    # the coherent-state closed form against the assembled Fock-space POVM
    ideal_pair = displaced_povm(spec, 0.894j, DetectorModel(), dim)
    dual_route = max(
        abs(_click_form(spec.alpha, _contrast(spec), det, dim.n_max)(0.894j) - fidelity(povm, spec))
        for det, povm in ((DetectorModel(), ideal_pair), (lab, pair))
    )

    shift = effective_displacement(0.894j, lab)
    truth = apparatus_povm(spec, shift, lab, dim)
    probes = ProbeSet(0.499, (0.2, 0.3))
    table = ClickTable.from_rates(probes.amplitudes(), expected_rates(truth, probes), 1.0)
    run = tomography_pipeline(table, probes)
    projected = ScsPovm(scs_basis_project(truth.pi0, 0.499), scs_basis_project(truth.pi1, 0.499))
    roundtrip = 1.0 - povm_pair_fidelity(projected, run.povm)

    return [
        ("displacement-unitarity", 1e-4, unitarity),
        ("povm-completeness", 1e-10, completeness),
        ("entry-bound-property", 1e-9, bound),
        ("fidelity-dual-route", 1e-10, dual_route),
        ("noiseless-roundtrip", 1e-3, roundtrip),
    ]


def cmd_selftest(cfg: Config) -> int:
    """Run the invariant battery and report residuals."""
    # config-provided resources are validated first, so a bad detector or a
    # corrupted click file fails loudly here rather than inside a later run
    with _stage("config"):
        _detector(cfg)
        dim = TruncationDim(cfg["nmax"])
        if cfg["clicks"] is not None:
            read_click_table(cfg["clicks"])
    with _stage("selftest"):
        checks = _selftest_checks(dim)
    failures = 0
    for name, tol, residual in checks:
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual={format_float(residual)} (tol {format_float(tol)})")
    if failures:
        raise StageError("selftest", RuntimeError(f"{failures} check(s) failed"))
    print(f"all {len(checks)} checks passed")
    return 0


COMMANDS = {
    "fidelity-sweep": cmd_fidelity_sweep,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "tomography": cmd_tomography,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catproj",
        description="Cat-state projection measurements: sweeps, simulated campaigns, tomography.",
        epilog="commands:\n"
        + "\n".join(f"  {name:<16}{cmd.__doc__}" for name, cmd in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"catproj {__version__}")
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--preset", help=f"named defaults: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--config", help="flat JSON config file (overrides preset)")
    parser.add_argument("--out", help="output path (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--nmax", type=int, help="Fock-space cutoff (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except StageError as err:
        record = {"error": type(err.err).__name__, "stage": err.stage, "message": str(err.err)}
    except Exception as err:  # noqa: BLE001 - every failure becomes a record
        record = {"error": type(err).__name__, "stage": "config", "message": str(err)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
