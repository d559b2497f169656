"""Command-line front end: sweeps, simulated campaigns, tomography, self-tests.

Configuration is a flat JSON object; figure presets supply the published
operating points as named defaults, a ``--config`` file overrides the
preset, and command-line flags override both.  Every failure is reported
as a one-line JSON record on stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    Campaign,
    apparatus_povm,
    default_displacement_schedule,
    effective_displacement,
    expected_rates,
    reconstruction_sweep,
    simulate_counts,
)
from .fidelity import (
    SweepGrid,
    _click_form,
    _contrast,
    _optimized_reports,
    displaced_povm,
    fidelity,
    sweep,
)
from .fock import ScsMeasurementSpec, TruncationDim, displacement_defect
from .povm import DetectorModel, random_povm_pair
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
    _require_probe_rows,
    error_bars,
    povm_entry_bound_check,
    povm_pair_fidelity,
    scs_basis_project,
    tomography_pipeline,
)

# every key a config file may contain, with the accepted value shape
_SCHEMA: dict[str, type | tuple] = {
    "mode": str,  # tomography only: "single" or "sweep"
    "alpha": (int, float),
    "c0sq": (int, float),
    "phi": (int, float),
    "c0sq_values": list,
    "alpha_sq_values": list,
    "phi_values": list,
    "eta": (int, float),
    "nu": (int, float),
    "visibility": (int, float),
    "drive_amplitude": (int, float),
    "drive_phase": (int, float),
    "gammas": list,
    "shots": int,
    "seed": int,
    "nmax": int,
    "schedule": list,
    "quantize": bool,
    "clicks": str,
    "error_bars_sigma": (int, float),
    "out": str,
}


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


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        want = _SCHEMA[key]
        if isinstance(value, bool) and want is not bool or not isinstance(value, want):
            raise ConfigError(f"config key {key!r} has the wrong type")
        if want in (str, bool):
            continue
        if not all(map(_finite_number, value if want is list else [value])):
            raise ConfigError(f"config key {key!r} must hold finite numbers only")
    if not 1 <= cfg.get("nmax", 1) <= NMAX_CEILING:
        raise ConfigError(f"nmax must lie in [1, {NMAX_CEILING}], got {cfg['nmax']}")
    if cfg.get("error_bars_sigma", 0.0) < 0.0:
        raise ConfigError(f"error_bars_sigma must be >= 0, got {cfg['error_bars_sigma']}")
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        cfg.update(PRESETS[args.preset])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        cfg.update(validate_config(loaded))
    for key in ("seed", "nmax", "out"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return validate_config(cfg)


def _detector(cfg: dict) -> DetectorModel:
    return DetectorModel(
        eta=float(cfg.get("eta", 1.0)),
        nu=float(cfg.get("nu", 0.0)),
        visibility=float(cfg.get("visibility", 1.0)),
    )


def _dim(cfg: dict) -> TruncationDim:
    return TruncationDim(int(cfg.get("nmax", 20)))


def _out_path(cfg: dict) -> Path:
    if "out" not in cfg:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    return Path(cfg["out"])


def _probes(cfg: dict) -> ProbeSet:
    return ProbeSet(float(cfg.get("alpha", 0.499)), tuple(float(g) for g in cfg.get("gammas", (0.2, 0.3))))


def _spec(cfg: dict) -> ScsMeasurementSpec:
    return ScsMeasurementSpec.from_c0sq(
        float(cfg.get("alpha", 0.499)), float(cfg.get("c0sq", 0.5)), float(cfg.get("phi", 0.0))
    )


def _truth_campaign(cfg: dict, dim: TruncationDim):
    """Apparatus POVM plus acquisition plan implied by a config."""
    detector = _detector(cfg)
    drive = float(cfg.get("drive_amplitude", 0.0)) * np.exp(1j * float(cfg.get("drive_phase", 0.0)))
    shift = effective_displacement(drive, detector)
    truth = apparatus_povm(_spec(cfg), shift, detector, dim)
    schedule = tuple(complex(b) for b in cfg.get("schedule", (0j,)))
    campaign = Campaign(
        probes=_probes(cfg),
        shots_per_probe=int(cfg.get("shots", 200_000)),
        detector=detector,
        displacement_schedule=schedule,
        rng_seed=int(cfg.get("seed", 0)),
    )
    return truth, campaign


def _meta(cfg: dict) -> dict:
    return {
        "nmax": int(cfg.get("nmax", 20)),
        "version": __version__,
        "convention": "outcome 0 targets c0*C+ + c1*exp(i*phi)*C-",
    }


def _hashable(cfg: dict) -> dict:
    """The config as hashed into outputs: computation inputs only, not
    routing details, so re-running to a different path stays byte-identical."""
    return {k: v for k, v in cfg.items() if k != "out"}


def cmd_fidelity_sweep(cfg: dict) -> int:
    """Optimize the three strategies over a parameter grid, write CSV."""
    with _stage("config"):
        grid = SweepGrid(
            tuple(cfg.get("c0sq_values", ())),
            tuple(cfg.get("alpha_sq_values", ())),
            tuple(cfg.get("phi_values", ())),
        )
        detector = _detector(cfg)
        out = _out_path(cfg)
    with _stage("sweep"), warnings.catch_warnings():
        # each failed point is also a library warning; the record below reports them
        warnings.simplefilter("ignore")
        errors: list = []
        reports = sweep(grid, detector, _dim(cfg), errors=errors)
        if errors:
            raise RuntimeError(f"{len(errors)} grid points failed; first: {errors[0][2]}")
    with _stage("write"):
        write_sweep_csv(out, reports, _hashable(cfg), int(cfg.get("seed", 0)), extra=_meta(cfg))
    print(f"wrote {len(reports)} rows to {out}")
    return 0


def cmd_optimize(cfg: dict) -> int:
    """Single-point optimization report (JSON)."""
    with _stage("config"):
        spec = _spec(cfg)
        detector = _detector(cfg)
    with _stage("optimize"):
        (report,) = _optimized_reports([spec], detector, _dim(cfg))
        if isinstance(report, Exception):
            raise report
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
    if "out" in cfg:
        with _stage("write"):
            atomic_write_text(cfg["out"], text + "\n")
    else:
        print(text)
    return 0


def cmd_simulate(cfg: dict) -> int:
    """Generate a seeded click table from an apparatus model, write CSV."""
    with _stage("config"):
        dim = _dim(cfg)
        out = _out_path(cfg)
        truth, campaign = _truth_campaign(cfg, dim)
    with _stage("simulate"):
        table = simulate_counts(truth, campaign)
    with _stage("write"):
        write_click_table(out, table, _hashable(cfg), campaign.rng_seed, extra=_meta(cfg))
    print(f"wrote {len(table.probe_amplitudes)} probe rows to {out}")
    return 0


def cmd_tomography(cfg: dict) -> int:
    """Simulate or ingest clicks, reconstruct the POVM, write JSON/CSV."""
    mode = cfg.get("mode", "single")
    if mode == "sweep":
        return _tomography_sweep(cfg)
    if mode != "single":
        raise ConfigError(f"mode must be 'single' or 'sweep', got {mode!r}")
    with _stage("config"):
        dim = _dim(cfg)
        out = _out_path(cfg)
        probes = _probes(cfg)
        seed = int(cfg.get("seed", 0))
    clicks_sha256 = None
    if "clicks" in cfg:
        with _stage("ingest"):
            table, clicks_meta = read_click_table(cfg["clicks"])
            _require_probe_rows(table, probes)
            clicks_sha256 = clicks_meta["sha256"]
    else:
        with _stage("simulate"):
            truth, campaign = _truth_campaign(cfg, dim)
            table = simulate_counts(truth, campaign)
    with _stage("reconstruct"):
        run = tomography_pipeline(table, probes, dim)
        sigma = float(cfg.get("error_bars_sigma", 0.0))
        bars = error_bars(run, sigma) if sigma > 0.0 else None
    with _stage("write"):
        write_tomography_json(out, run, _hashable(cfg), seed, bars, clicks_sha256)
    pi0 = run.povm.pi0
    print(
        f"reconstructed pi0 diag=({format_float(pi0[0, 0].real)}, "
        f"{format_float(pi0[1, 1].real)}) offdiag_im={format_float(pi0[0, 1].imag)} -> {out}"
    )
    return 0


def _tomography_sweep(cfg: dict) -> int:
    with _stage("config"):
        dim = _dim(cfg)
        out = _out_path(cfg)
        detector = _detector(cfg)
        schedule = cfg.get("schedule")
        if schedule is None and cfg.get("quantize", True):
            schedule = default_displacement_schedule(float(cfg.get("alpha", 0.499)))
        campaign = Campaign(
            probes=_probes(cfg),
            shots_per_probe=int(cfg.get("shots", 200_000)),
            detector=detector,
            displacement_schedule=tuple(complex(b) for b in schedule) if schedule else (0j,),
            rng_seed=int(cfg.get("seed", 0)),
        )
        phis = [float(p) for p in cfg.get("phi_values", (0.0,))]
        c0sq_values = list(cfg.get("c0sq_values", ()))
        if not c0sq_values:
            raise ConfigError("c0sq_values must not be empty")
        campaign.point_seeds(len(c0sq_values))
    points = []
    with _stage("reconstruct"):
        for phi in phis:
            points.extend(
                reconstruction_sweep(
                    campaign, c0sq_values, phi, dim, quantize=bool(cfg.get("quantize", True))
                )
            )
    with _stage("write"):
        write_reconstruction_csv(out, points, _hashable(cfg), campaign.rng_seed, extra=_meta(cfg))
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
    table = ClickTable.from_rates(probes.amplitudes(), expected_rates(truth, probes, dim), 1.0)
    run = tomography_pipeline(table, probes, dim)
    projected = ScsPovm(
        scs_basis_project(truth.pi0, 0.499, dim), scs_basis_project(truth.pi1, 0.499, dim)
    )
    roundtrip = 1.0 - povm_pair_fidelity(projected, run.povm)

    return [
        ("displacement-unitarity", 1e-4, unitarity),
        ("povm-completeness", 1e-10, completeness),
        ("entry-bound-property", 1e-9, bound),
        ("fidelity-dual-route", 1e-10, dual_route),
        ("noiseless-roundtrip", 1e-3, roundtrip),
    ]


def cmd_selftest(cfg: dict) -> int:
    """Run the invariant battery and report residuals."""
    # config-provided resources are validated first, so a bad detector or a
    # corrupted click file fails loudly here rather than inside a later run
    with _stage("config"):
        _detector(cfg)
        if "clicks" in cfg:
            read_click_table(cfg["clicks"])
    with _stage("selftest"):
        checks = _selftest_checks(_dim(cfg))
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
