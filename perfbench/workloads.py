"""The three workloads: the calls each one makes, and the per-call
correctness oracle that runs outside the timed window.

A *call* is the unit a timer wraps: one ``fidelity-sweep`` invocation, one
``tomography`` sweep invocation, or one ``simulate`` + ``tomography`` pair.
The CLI only ever sees the generated config files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

LAB = {"eta": 0.689, "nu": 5.32e-5, "visibility": 0.998}
FIDELITY_TOL = 1e-7  # the repo's optimizer pin
PROB_TOL = 1e-9  # POVM completeness / Hermiticity / PSD floor
RECON_TOL = 1e-4  # reconstructed fidelities: one binomial draw may move when beta moves by 1e-8
CLICK_SHOTS = 200_000


@dataclass
class Call:
    index: int
    steps: list  # [(argv, config dict or None)]; config is written before timing
    outputs: list  # artifact paths, in step order
    items: int
    meta: dict = field(default_factory=dict)


def execute(call: Call, cli, recorder=None) -> tuple[int, float, str]:
    """Run one call through ``cli.main``; return (exit code, seconds, stderr).

    Config files are written before the timer starts.  ``cli.main`` is
    looked up at call time so a traced pass goes through its wrapper; the
    recorder, when given, is active only inside the timed window.
    """
    for argv, cfg in call.steps:
        if cfg is not None:
            Path(argv[argv.index("--config") + 1]).write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    with redirect_stdout(out), redirect_stderr(err):
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        try:
            for argv, _ in call.steps:
                rc = cli.main(argv)
                if rc != 0:
                    break
        except (Exception, SystemExit):  # a raise or argparse exit is a failed call, not a crash
            rc = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.active = False
    return rc, elapsed, err.getvalue()


class Run:
    """Executes calls, checks them outside the timed window and tallies.

    Every call of a pool runs once per pass; its best time is the fastest
    of those runs, and every rerun must write the same bytes as the first.
    """

    def __init__(self, workload, cli):
        self.wl = workload
        self.cli = cli
        self.durations: list[float] = []
        self.best: dict[int, float] = {}
        self.items: dict[int, int] = {}  # items of each call that passed its checks
        self.failed = 0
        self.problems: list[str] = []
        self.summaries: dict[int, object] = {}
        self.artifacts: dict[int, list[bytes]] = {}

    def do(self, call, recorder=None) -> float:
        rc, seconds, err = execute(call, self.cli, recorder)
        self.durations.append(seconds)
        self.best[call.index] = min(seconds, self.best.get(call.index, math.inf))
        if rc == 0:
            try:
                self.summaries[call.index] = self.wl.check(call)
            except Exception as exc:  # noqa: BLE001 - a wrong output is a failed call
                self.problems.append(f"call {call.index}: {type(exc).__name__}: {exc}")
            else:
                self.items[call.index] = call.items
                written = [p.read_bytes() for p in call.outputs]
                if self.artifacts.setdefault(call.index, written) != written:
                    self.problems.append(f"call {call.index}: a rerun wrote different bytes")
                return seconds
        elif not _is_error_record(err):
            self.problems.append(f"call {call.index} failed without an error record:\n{err}")
        self.failed += 1
        self.summaries[call.index] = {"failed": _last_line(err)}
        return seconds


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _is_error_record(err: str) -> bool:
    """The CLI's failure contract: a one-line JSON record with a stage."""
    try:
        record = json.loads(_last_line(err))
    except json.JSONDecodeError:
        return False
    return isinstance(record, dict) and {"error", "stage", "message"} <= record.keys()


def config_digest(cfg: dict) -> str:
    """SHA-256 of the config as the CLI hashes it (routing keys removed)."""
    hashed = {k: v for k, v in cfg.items() if k not in ("out", "threads")}
    text = json.dumps(hashed, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _header(lines: list[str]) -> tuple[dict, list[str]]:
    meta = {}
    body = []
    for line in lines:
        if line.startswith("#") and not body:
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    return meta, body


def _read_csv(path: Path, schema: str, digest: str, seed: int) -> list[dict]:
    """Rows of a CLI artifact as column -> value, after checking its header."""
    meta, body = _header(path.read_text(encoding="utf-8").splitlines())
    name, _, version = meta.get("schema", "").rpartition(" ")
    if name != schema or version.partition(".")[0] != "1":
        raise AssertionError(f"schema line {meta.get('schema')!r}, expected {schema} 1.x")
    if meta.get("config_sha256") != digest:
        raise AssertionError("config_sha256 does not match the config passed")
    if meta.get("seed") != str(seed):
        raise AssertionError(f"seed header {meta.get('seed')!r}, expected {seed}")
    columns = body[0].split(",")
    return [
        {c: v if c == "probe_label" else float(v) for c, v in zip(columns, line.split(","), strict=True)}
        for line in body[1:]
    ]


def _close(a: float, b: float, tol: float, what: str) -> None:
    if not abs(a - b) <= tol:
        raise AssertionError(f"{what}: {a!r} vs {b!r} (tol {tol:g})")


class Pooled:
    """A workload whose run repeats one pool of calls, drawn from the seed.

    Each pass runs the whole pool in a fresh order.  Repeating the same work
    lets a call's fastest run stand for it: interference from other tenants
    of a shared machine only ever adds time.
    """

    pool_calls: int

    def pool(self, seed: int, work: Path) -> list:
        return list(islice(self.calls(np.random.default_rng(seed), work), self.pool_calls))

    def passes(self, seed: int, work: Path):
        pool = self.pool(seed, work)
        order = np.random.default_rng([seed, 1])
        while True:
            yield [pool[i] for i in order.permutation(len(pool))]


class Sweep(Pooled):
    """``fidelity-sweep`` over 3 c0sq x 2 alpha_sq x 1 phi drawn from the
    fig1b/fig1d ranges at nmax 20; odd calls use the ideal detector, even
    calls the lab detector."""

    name = "sweep"
    pool_calls = 6

    def _call(self, index: int, cfg: dict, work: Path) -> Call:
        out = work / f"sweep-{index:05d}.csv"
        argv = ["fidelity-sweep", "--config", str(work / f"sweep-{index:05d}.json"), "--out", str(out)]
        items = len(cfg["c0sq_values"]) * len(cfg["alpha_sq_values"]) * len(cfg["phi_values"])
        return Call(index, [(argv, cfg)], [out], items)

    def probe(self, work: Path) -> Call:
        cfg = {"c0sq_values": [0.5], "alpha_sq_values": [0.25], "phi_values": [0.0], "nmax": 20}
        return self._call(0, cfg, work)

    def calls(self, rng: np.random.Generator, work: Path):
        index = 0
        while True:
            index += 1
            cfg = {
                "c0sq_values": sorted(set(np.round(rng.uniform(0.0, 1.0, 3), 4).tolist())),
                "alpha_sq_values": sorted(set(np.round(rng.uniform(0.1, 2.3, 2), 4).tolist())),
                "phi_values": [round(float(rng.uniform(0.0, math.pi)), 4)],
                "nmax": 20,
            }
            if index % 2 == 0:
                cfg.update(LAB)
            yield self._call(index, cfg, work)

    def check(self, call: Call) -> list:
        from catproj.fidelity import displaced_povm, fidelity
        from catproj.fock import ScsMeasurementSpec, TruncationDim
        from catproj.povm import DetectorModel, HomodyneSpec, homodyne_povm

        cfg = call.steps[0][1]
        rows = _read_csv(call.outputs[0], "catproj/sweep", config_digest(cfg), 0)
        grid = [
            (c, a, p)
            for c in cfg["c0sq_values"]
            for a in cfg["alpha_sq_values"]
            for p in cfg["phi_values"]
        ]
        if len(rows) != len(grid):
            raise AssertionError(f"{len(rows)} rows for {len(grid)} grid points")
        detector = DetectorModel(**{k: cfg[k] for k in LAB if k in cfg})
        dim = TruncationDim(cfg["nmax"])
        summary = []
        for row, point in zip(rows, grid):
            for name, want in zip(("c0sq", "alpha_sq", "phi"), point):
                _close(row[name], want, 1e-12, name)
            c0sq, alpha_sq, phi = point
            spec = ScsMeasurementSpec.from_c0sq(math.sqrt(alpha_sq), c0sq, phi)
            beta = complex(row["beta_opt_re"], row["beta_opt_im"])
            f_dp = fidelity(displaced_povm(spec, beta, detector, dim), spec)
            _close(row["f_dp"], f_dp, FIDELITY_TOL, "f_dp at beta_opt")
            hd = HomodyneSpec(row["x_th_opt"], row["lo_phase_opt"])
            f_hd = fidelity(homodyne_povm(hd, dim), spec)
            _close(row["f_hd"], f_hd, FIDELITY_TOL, "f_hd at the reported threshold and phase")
            _close(row["f_pn"], max(c0sq, 1.0 - c0sq), 1e-12, "f_pn")
            if detector.is_ideal and row["f_dp"] < row["f_pn"] - 1e-9:
                raise AssertionError("ideal displaced counting falls below photon counting")
            summary.append([row["f_dp"], row["f_hd"], row["f_pn"]])
        return summary

    @staticmethod
    def compare(got: list, ref: list) -> None:
        for g, r in zip(got, ref, strict=True):
            for a, b in zip(g, r, strict=True):
                _close(a, b, FIDELITY_TOL, "sweep reference fidelity")


class Reconstruct(Pooled):
    """``tomography`` in sweep mode at the fig4/fig5 lab settings: 3 c0sq from
    the fig4 grid over [0.5, 1] at one phi; quantize alternates on and off.

    The cost of a point is set by its shot noise: 160 seeded points took
    0.09-5.7 s (compensated-MLE iterations up to 46k), so pools drawn from
    different seeds differ several-fold in work.  The pool is therefore
    drawn once, with ``POOL_SEED`` (the seed of the repo's fig3-fig5
    presets); the workload seed only orders the passes.
    """

    name = "reconstruct"
    POOL_SEED = 7
    pool_calls = 6
    C0SQ_GRID = [round(0.5 + 0.05 * k, 2) for k in range(11)]

    def __init__(self):
        self._menu = None

    def _call(self, index: int, cfg: dict, work: Path) -> Call:
        out = work / f"reconstruct-{index:05d}.csv"
        argv = ["tomography", "--config", str(work / f"reconstruct-{index:05d}.json"), "--out", str(out)]
        return Call(index, [(argv, cfg)], [out], len(cfg["c0sq_values"]) * len(cfg["phi_values"]))

    @staticmethod
    def _config(c0sq_values, phi, quantize, seed) -> dict:
        return {
            "mode": "sweep",
            "alpha": 0.499,
            "gammas": [0.2, 0.3],
            "shots": CLICK_SHOTS,
            "nmax": 24,
            "c0sq_values": c0sq_values,
            "phi_values": [phi],
            "quantize": quantize,
            "seed": seed,
            **LAB,
        }

    def probe(self, work: Path) -> Call:
        return self._call(0, self._config([1.0], 0.0, True, 1), work)

    def pool(self, seed: int, work: Path) -> list:
        return super().pool(self.POOL_SEED, work)

    def calls(self, rng: np.random.Generator, work: Path):
        index = 0
        while True:
            index += 1
            if index % 3 == 0:  # the boundary point, where probe expectations get clamped
                c0sq = sorted(rng.choice(self.C0SQ_GRID[:-1], 2, replace=False).tolist()) + [1.0]
            else:
                c0sq = sorted(rng.choice(self.C0SQ_GRID, 3, replace=False).tolist())
            phi = round(float(rng.uniform(0.0, math.pi)), 4)
            seed = int(rng.integers(0, 2**40))
            yield self._call(index, self._config(c0sq, phi, index % 2 == 1, seed), work)

    def check(self, call: Call) -> list:
        from catproj.experiment import default_displacement_schedule
        from catproj.fidelity import displaced_povm, fidelity
        from catproj.fock import ScsMeasurementSpec, TruncationDim
        from catproj.povm import IDEAL_DETECTOR

        cfg = call.steps[0][1]
        rows = _read_csv(call.outputs[0], "catproj/reconstruction", config_digest(cfg), cfg["seed"])
        if len(rows) != len(cfg["c0sq_values"]):
            raise AssertionError(f"{len(rows)} rows for {len(cfg['c0sq_values'])} points")
        if self._menu is None:
            self._menu = [abs(b) for b in default_displacement_schedule(cfg["alpha"])]
        dim = TruncationDim(cfg["nmax"])
        summary = []
        for row, c0sq in zip(rows, cfg["c0sq_values"]):
            _close(row["c0sq"], c0sq, 1e-12, "c0sq")
            _close(row["phi"], cfg["phi_values"][0], 1e-12, "phi")
            for name in ("f_ideal", "f_raw", "f_compensated"):
                if not -PROB_TOL <= row[name] <= 1.0 + PROB_TOL:
                    raise AssertionError(f"{name}={row[name]!r} outside [0, 1]")
            beta = complex(row["beta_re"], row["beta_im"])
            if cfg["quantize"] and min(abs(abs(beta) - m) for m in self._menu) > 1e-9:
                raise AssertionError(f"|beta|={abs(beta)!r} is not on the displacement menu")
            spec = ScsMeasurementSpec.from_c0sq(cfg["alpha"], c0sq, cfg["phi_values"][0])
            f_ideal = fidelity(displaced_povm(spec, beta, IDEAL_DETECTOR, dim), spec)
            _close(row["f_ideal"], f_ideal, FIDELITY_TOL, "f_ideal at the reported beta")
            summary.append([row["f_ideal"], row["f_raw"], row["f_compensated"]])
        return summary

    @staticmethod
    def compare(got: list, ref: list) -> None:
        for g, r in zip(got, ref, strict=True):
            _close(g[0], r[0], FIDELITY_TOL, "reconstruct reference f_ideal")
            for a, b in zip(g[1:], r[1:], strict=True):
                _close(a, b, RECON_TOL, "reconstruct reference fidelity")


class Campaign(Pooled):
    """Per seed: ``simulate --preset fig3 --seed s``, then ``tomography
    --preset fig3`` ingesting that click CSV, with error bars."""

    name = "campaign"
    pool_calls = 40

    def _call(self, index: int, seed: int, work: Path) -> Call:
        clicks = work / f"campaign-{index:05d}.csv"
        out = work / f"campaign-{index:05d}.tomo.json"
        simulate = ["simulate", "--preset", "fig3", "--seed", str(seed), "--out", str(clicks)]
        tomo_cfg = {"clicks": str(clicks)}
        tomo = ["tomography", "--preset", "fig3", "--config", str(work / f"campaign-{index:05d}.json"), "--out", str(out)]
        return Call(index, [(simulate, None), (tomo, tomo_cfg)], [clicks, out], 1, {"seed": seed})

    def probe(self, work: Path) -> Call:
        return self._call(0, 7, work)

    def calls(self, rng: np.random.Generator, work: Path):
        index = 0
        while True:
            index += 1
            yield self._call(index, int(rng.integers(0, 2**40)), work)

    def check(self, call: Call) -> list:
        from catproj.cli import PRESETS

        preset = PRESETS["fig3"]
        seed = call.meta["seed"]
        clicks, tomo = call.outputs
        rows = _read_csv(clicks, "catproj/clicks", config_digest({**preset, "seed": seed}), seed)
        n_probes = 2 + 2 * len(preset["gammas"])
        if len(rows) != n_probes:
            raise AssertionError(f"{len(rows)} click rows, expected {n_probes}")
        counts0 = []
        for row in rows:
            c0, c1, shots = row["outcome0_count"], row["outcome1_count"], row["shots"]
            if shots != preset["shots"] or c0 + c1 != shots or c0 != int(c0) or min(c0, c1) < 0:
                raise AssertionError(f"inconsistent click row {row!r}")
            counts0.append(c0)

        payload = json.loads(tomo.read_text(encoding="utf-8"))
        name, _, version = payload.get("schema", "").rpartition(" ")
        if name != "catproj/tomography" or version.partition(".")[0] != "1":
            raise AssertionError(f"tomography schema {payload.get('schema')!r}")
        if payload["config_sha256"] != config_digest({**preset, "clicks": str(clicks)}):
            raise AssertionError("tomography config_sha256 does not match the config passed")
        pi = {
            k: np.array(payload["povm"][k]["re"]) + 1j * np.array(payload["povm"][k]["im"])
            for k in ("pi0", "pi1")
        }
        if np.max(np.abs(pi["pi0"] + pi["pi1"] - np.eye(2))) > PROB_TOL:
            raise AssertionError("written pi0 + pi1 is not the identity")
        for k, m in pi.items():
            if np.max(np.abs(m - m.conj().T)) > PROB_TOL:
                raise AssertionError(f"written {k} is not Hermitian")
            if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -PROB_TOL:
                raise AssertionError(f"written {k} is not positive semidefinite")
        central = {"pi0_00_re": pi["pi0"][0, 0].real, "pi0_11_re": pi["pi0"][1, 1].real}
        for key, value in central.items():
            lo, hi = payload["error_bars"][key]
            if not lo - 1e-12 <= value <= hi + 1e-12:
                raise AssertionError(f"{key}={value!r} outside its error bar [{lo}, {hi}]")
        return [counts0, pi["pi0"].real.ravel().tolist() + pi["pi0"].imag.ravel().tolist()]

    @staticmethod
    def compare(got: list, ref: list) -> None:
        if got[0] != ref[0]:
            raise AssertionError("campaign click counts differ from the reference")
        for a, b in zip(got[1], ref[1], strict=True):
            _close(a, b, 1e-6, "campaign reference pi0 entry")


WORKLOADS = {w.name: w for w in (Sweep, Reconstruct, Campaign)}
