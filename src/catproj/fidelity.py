"""Measurement fidelities for binary cat-state qubit readout, and optimizers.

The central quantity is the two-term average

    F = ( <pi0| P0 |pi0> + <pi1| P1 |pi1> ) / 2

between the orthonormal target vectors of an ``ScsMeasurementSpec`` and a
binary POVM ``(P0, P1)``.  This module evaluates F for the displaced
photon-counting measurement (exact partition for an ideal counter, the
on/off click model otherwise), for binary homodyne detection, and for the
bare photon-number-parity baseline, and provides deterministic
grid-plus-simplex optimizers over the displacement and over the homodyne
threshold/phase.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .fock import (
    ScsMeasurementSpec,
    _displacement_matrix,
    as_dim,
    expect,
    max_guarded_amplitude,
    scs_projectors,
)
from .povm import (
    IDEAL_DETECTOR,
    DetectorModel,
    PovmPair,
    _outcome_weights,
    dp_povm,
    onoff_povm,
    quadrature_interval_operator,
)

#: coarse polar search grid for the displacement optimizer
AMPLITUDE_STEP = 0.02
AMPLITUDE_CEILING = 2.5
PHASE_STEP = math.pi / 60.0

#: search box for the homodyne optimizer
THRESHOLD_RANGE = (-6.0, 6.0)
THRESHOLD_STEP = 0.1

#: simplex refinement tolerance (in the objective)
REFINE_TOL = 1e-8

REPORT_CONSISTENCY_TOL = 1e-10

#: complex elements per (rows, phases, N) grid temporary: about 0.5 MB, so a
#: grid's memory stays flat however large the cutoff
_GRID_BLOCK_ELEMENTS = 2**15


def fidelity(pair: PovmPair, spec: ScsMeasurementSpec) -> float:
    """Average of the two diagonal POVM matrix elements in the target basis."""
    t0, t1 = scs_projectors(spec, pair.dim)
    val = 0.5 * (expect(pair.pi0, t0) + expect(pair.pi1, t1))
    if abs(val.imag) > 1e-10:
        raise ArithmeticError(
            f"fidelity has a non-negligible imaginary part {val.imag:.3e}"
        )
    return float(val.real)


def pnrd_fidelity(spec: ScsMeasurementSpec) -> float:
    """Best achievable fidelity of undisplaced photon-number parity readout."""
    return float(max(spec.c0**2, spec.c1**2))


def displaced_povm(spec: ScsMeasurementSpec, beta: complex, detector: DetectorModel, dim) -> PovmPair:
    """POVM realized by displacing then counting with the given detector.

    An ideal detector resolves photon number and yields the exact
    two-outcome partition; any imperfection switches to the on/off click
    model, which is how the measurement is actually operated.
    """
    if detector.is_ideal:
        return dp_povm(spec, beta, dim)
    return onoff_povm(beta, detector, dim)


def _by_blocks(score, rows: np.ndarray, row_elements: int) -> np.ndarray:
    """``score`` applied to consecutive blocks of ``rows``, results stacked;
    a block holds about ``_GRID_BLOCK_ELEMENTS / row_elements`` rows."""
    size = max(1, _GRID_BLOCK_ELEMENTS // row_elements)
    return np.concatenate([score(rows[i : i + size]) for i in range(0, rows.size, size)])


def _click_values(t0, t1, radii, phases, detector: DetectorModel, dim) -> np.ndarray:
    """Fidelity at every displacement ``radii[r] * exp(i*phases[p])`` as an
    ``(R, P)`` array; ``radii`` may be complex.

    The matrices of all radii come from one batched build, rescaled by the
    interference visibility for a click detector.  Rotating the phase only
    multiplies matrix elements by ``exp(i*theta*(m-n))``, so every phase on
    a ring reuses the ring's matrix.
    """
    scale = 1.0 if detector.is_ideal else detector.visibility
    dmats = _displacement_matrix(scale * np.atleast_1d(radii), dim)
    m = np.arange(dim.size)
    ramp = np.exp(1j * np.outer(phases, m))
    r0 = np.abs((ramp * t0.conj()) @ dmats) ** 2
    r1 = np.abs((ramp * t1.conj()) @ dmats) ** 2
    if detector.is_ideal:
        keep = r0 >= r1
        return 0.5 * ((r0 * keep).sum(axis=-1) + 1.0 - (r1 * keep).sum(axis=-1))
    weights = _outcome_weights(m == 0, detector.eta)
    return 0.5 * (1.0 + (1.0 - detector.nu) * ((r0 - r1) @ weights))


def displaced_click_fidelity(
    spec: ScsMeasurementSpec,
    beta: complex,
    detector: DetectorModel,
    dim,
) -> float:
    """Fidelity of the displaced counting measurement at a fixed ``beta``."""
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    return float(_click_values(t0.amps, t1.amps, complex(beta), 0.0, detector, dim)[0, 0])


def optimize_displacement(
    spec: ScsMeasurementSpec,
    detector: DetectorModel,
    dim,
) -> tuple[complex, float]:
    """Maximize the displaced-counting fidelity over complex ``beta``.

    A coarse polar grid (amplitude step ``AMPLITUDE_STEP`` up to the largest
    amplitude the truncation supports, phase step ``PHASE_STEP``) is followed
    by Nelder-Mead refinement in the (Re, Im) plane; amplitudes outside the
    supported disc are rejected by a penalty, and the refined point is only
    accepted when it actually improves on the grid.  Fully deterministic:
    grid ties go to the first maximum in radius-major order.
    """
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    a0, a1 = t0.amps, t1.amps
    r_max = min(AMPLITUDE_CEILING, max_guarded_amplitude(dim, AMPLITUDE_STEP))
    radii = np.arange(0.0, r_max + 1e-12, AMPLITUDE_STEP)
    n_phases = int(round(2.0 * math.pi / PHASE_STEP))
    phases = np.arange(n_phases) * PHASE_STEP

    vals = _by_blocks(
        lambda rs: _click_values(a0, a1, rs, phases, detector, dim), radii, phases.size * dim.size
    )
    i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_f = float(vals[i, k])
    r = float(radii[i])
    best_beta = complex(r * math.cos(phases[k]), r * math.sin(phases[k]))

    def negated(xy: np.ndarray) -> float:
        b = complex(xy[0], xy[1])
        excess = abs(b) - r_max
        if excess > 0.0:
            return 1.0 + excess
        return -float(_click_values(a0, a1, b, 0.0, detector, dim)[0, 0])

    res = minimize(
        negated,
        np.array([best_beta.real, best_beta.imag]),
        method="Nelder-Mead",
        options={"xatol": REFINE_TOL, "fatol": REFINE_TOL, "maxiter": 600},
    )
    refined = complex(res.x[0], res.x[1])
    if -res.fun >= best_f and abs(refined) <= r_max:
        best_f = float(-res.fun)
        best_beta = refined
    return best_beta, best_f


def _homodyne_values(t0, t1, thresholds, lo_phases, dim) -> np.ndarray:
    """Fidelity of thresholded homodyne readout at every (threshold, phase)
    pair, as a ``(T, P)`` array; all threshold operators come from one
    closed-form evaluation."""
    intervals = quadrature_interval_operator(np.atleast_1d(thresholds), np.inf, dim)
    ramp = np.exp(-1j * np.outer(lo_phases, np.arange(dim.size)))
    w0 = ramp * t0
    w1 = ramp * t1
    v0 = np.sum((w0.conj() @ intervals) * w0, axis=-1).real
    v1 = np.sum((w1.conj() @ intervals) * w1, axis=-1).real
    return 0.5 * (v0 + 1.0 - v1)


def homodyne_fidelity(
    spec: ScsMeasurementSpec,
    x_th: float,
    lo_phase: float,
    dim,
) -> float:
    """Fidelity of thresholded homodyne readout at fixed threshold and phase."""
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    return float(_homodyne_values(t0.amps, t1.amps, x_th, lo_phase, dim)[0, 0])


def optimize_homodyne(spec: ScsMeasurementSpec, dim) -> tuple[float, float, float]:
    """Maximize the homodyne fidelity over threshold and local-oscillator phase.

    Grid over ``x_th`` in ``THRESHOLD_RANGE`` (step ``THRESHOLD_STEP``) times
    sixty phases in [0, pi), then clamped Nelder-Mead refinement.  Grid ties
    go to the first maximum in threshold-major order.  Returns
    ``(x_th_opt, lo_phase_opt, f)``.
    """
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    a0, a1 = t0.amps, t1.amps
    lo, hi = THRESHOLD_RANGE
    xs = np.arange(lo, hi + 1e-9, THRESHOLD_STEP)
    thetas = np.arange(60) * (math.pi / 60.0)

    vals = _by_blocks(
        lambda block: _homodyne_values(a0, a1, block, thetas, dim), xs, thetas.size * dim.size
    )
    i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = (float(vals[i, k]), float(xs[i]), float(thetas[k]))

    theta_cap = math.pi * (1.0 - 1e-12)

    def clamp(p: np.ndarray) -> tuple[float, float]:
        return (
            min(max(float(p[0]), lo), hi),
            min(max(float(p[1]), 0.0), theta_cap),
        )

    def negated(p: np.ndarray) -> float:
        x, th = clamp(p)
        return -float(_homodyne_values(a0, a1, x, th, dim)[0, 0])

    res = minimize(
        negated,
        np.array([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": REFINE_TOL, "fatol": REFINE_TOL, "maxiter": 400},
    )
    if -res.fun >= best[0]:
        x_opt, th_opt = clamp(res.x)
        return x_opt, th_opt, float(-res.fun)
    return best[1], best[2], best[0]


def quantize_to_schedule(beta: complex, levels) -> complex:
    """Snap the displacement amplitude to the nearest entry of a level list.

    The phase is preserved; only the modulus is quantized.  Mirrors running
    an experiment that can only prepare a finite menu of local-oscillator
    amplitudes.
    """
    levels = sorted(float(v) for v in levels)
    if not levels:
        raise ValueError("schedule must contain at least one amplitude")
    if levels[0] < 0.0:
        raise ValueError("schedule amplitudes must be non-negative")
    r = abs(beta)
    nearest = min(levels, key=lambda v: (abs(v - r), v))
    if r == 0.0:
        return complex(nearest, 0.0)
    return nearest * (beta / r)


@dataclass(frozen=True)
class FidelityReport:
    """Optimized fidelities of the three measurement strategies at one spec."""

    f_dp: float
    f_hd: float
    f_pn: float
    beta_opt: complex
    x_th_opt: float
    lo_phase_opt: float
    spec: ScsMeasurementSpec
    detector: DetectorModel

    def __post_init__(self) -> None:
        for name in ("f_dp", "f_hd", "f_pn"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name}={v!r} is outside [0, 1]")

    def verify(self, dim) -> None:
        """Recompute f_dp from the assembled POVM at beta_opt and compare."""
        pair = displaced_povm(self.spec, self.beta_opt, self.detector, dim)
        ref = fidelity(pair, self.spec)
        if abs(ref - self.f_dp) > REPORT_CONSISTENCY_TOL:
            raise ArithmeticError(
                f"reported f_dp={self.f_dp!r} disagrees with the POVM value "
                f"{ref!r} at beta_opt={self.beta_opt!r}"
            )


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of superposition weight, mean photon number and phase."""

    c0sq_values: tuple
    alpha_sq_values: tuple
    phi_values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0sq_values", tuple(float(v) for v in self.c0sq_values))
        object.__setattr__(self, "alpha_sq_values", tuple(float(v) for v in self.alpha_sq_values))
        object.__setattr__(self, "phi_values", tuple(float(v) for v in self.phi_values))
        for name in ("c0sq_values", "alpha_sq_values", "phi_values"):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"{name} must not be empty")
            if any(not math.isfinite(v) for v in vals):
                raise ValueError(f"{name} contains a non-finite value")
            if list(vals) != sorted(vals):
                raise ValueError(f"{name} must be sorted ascending")
        if self.c0sq_values[0] < 0.0 or self.c0sq_values[-1] > 1.0:
            raise ValueError("c0sq_values must lie in [0, 1]")
        if self.alpha_sq_values[0] <= 0.0:
            raise ValueError("alpha_sq_values must be positive")

    def __len__(self) -> int:
        return len(self.c0sq_values) * len(self.alpha_sq_values) * len(self.phi_values)

    def points(self):
        """Grid points in row-major (c0sq, alpha_sq, phi) order."""
        return itertools.product(self.c0sq_values, self.alpha_sq_values, self.phi_values)


def _sweep_point(
    point: tuple[float, float, float],
    detector: DetectorModel,
    dim,
) -> FidelityReport:
    c0sq, alpha_sq, phi = point
    spec = ScsMeasurementSpec.from_c0sq(math.sqrt(alpha_sq), c0sq, phi)
    beta_opt, f_dp = optimize_displacement(spec, detector, dim)
    x_opt, th_opt, f_hd = optimize_homodyne(spec, dim)
    report = FidelityReport(
        f_dp=f_dp,
        f_hd=f_hd,
        f_pn=pnrd_fidelity(spec),
        beta_opt=beta_opt,
        x_th_opt=x_opt,
        lo_phase_opt=th_opt,
        spec=spec,
        detector=detector,
    )
    report.verify(dim)
    return report


def sweep(
    grid: SweepGrid,
    detector: DetectorModel = IDEAL_DETECTOR,
    dim=20,
    errors: list | None = None,
) -> list[FidelityReport]:
    """One optimized FidelityReport per grid point, in grid order.

    A failing point does not abort the sweep: its exception is appended to
    ``errors`` (when given) as ``(index, point, exception)`` and reported
    as a warning, and the point is dropped from the output.
    """
    dim = as_dim(dim)
    reports = []
    for idx, point in enumerate(grid.points()):
        try:
            reports.append(_sweep_point(point, detector, dim))
        except Exception as exc:  # noqa: BLE001 - aggregated, not swallowed
            if errors is not None:
                errors.append((idx, point, exc))
            warnings.warn(f"sweep point {idx} {point} failed: {exc}", stacklevel=2)
    return reports


__all__ = [
    "AMPLITUDE_CEILING",
    "AMPLITUDE_STEP",
    "PHASE_STEP",
    "REFINE_TOL",
    "THRESHOLD_RANGE",
    "THRESHOLD_STEP",
    "FidelityReport",
    "SweepGrid",
    "displaced_click_fidelity",
    "displaced_povm",
    "fidelity",
    "homodyne_fidelity",
    "optimize_displacement",
    "optimize_homodyne",
    "pnrd_fidelity",
    "quantize_to_schedule",
    "sweep",
]
