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

Every target vector is a two-term sum u|alpha> + v|-alpha>, and
D(beta)^dag |a> = e^{i Im(beta* a)} |a - beta>, so every fidelity the
optimizers search has a closed form in coherent-state overlaps.  The closed
form searches, with no N x N matrix per evaluation: the grids score whole
arrays at once, every temporary the size of the grid, and an in-repo
two-variable Nelder-Mead refines the grid's best point on the same closed
form in ``math``/``cmath`` scalar arithmetic.  The truncated Fock model
scores the point each search returns, so every reported number is the Fock
model's.

Only a 2 x 2 contrast depends on the superposition weight and phase; the
rest of each closed form depends on alpha alone.  A sweep therefore groups
its points by alpha and optimizes each group in one pass: the alpha-only
grid terms are computed once per group, and each point costs a contrast
combination over the grid plus its own refinement and Fock score.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

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

#: most specs one grid call scores at once
_STACK = 32


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


def _contrast(spec: ScsMeasurementSpec) -> tuple[float, float, complex]:
    """(S_00, S_11, 2 S_01) as Python scalars, for the Hermitian
    S[k, l] = conj(C_0k) C_0l - conj(C_1k) C_1l, where t_j = sum_k C[j, k] |a_k>
    writes the target vectors as sums of two untruncated coherent states,
    a = (alpha, -alpha), the cat vectors normalized by
    N_pm^2 = 2 (1 +- exp(-2 alpha^2)).

    For any outcome-0 element P with M_kl = <a_k|P|a_l>, <t0|P|t0> -
    <t1|P|t1> = sum_kl S_kl M_kl = S_00 M_00 + S_11 M_11 + Re(2 S_01 M_01), so
    a fidelity F = (1 + <t0|P|t0> - <t1|P|t1>) / 2 needs only the 2 x 2
    coherent-state matrix elements of P, which do not depend on c0 or phi.
    """
    x = 2.0 * spec.alpha**2
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0 + 2.0 * math.exp(-x))
    minus = np.array([1.0, -1.0]) / math.sqrt(-2.0 * math.expm1(-x))
    u = spec.c1 * complex(math.cos(spec.phi), math.sin(spec.phi))
    C = np.array([spec.c0 * plus + u * minus, u.conjugate() * plus - spec.c0 * minus])
    S = C[0].conj()[:, None] * C[0] - C[1].conj()[:, None] * C[1]
    return float(S[0, 0].real), float(S[1, 1].real), complex(2.0 * S[0, 1])


def _grids(form, contrasts, *grid):
    """Yield ``form(contrast)(*grid)`` for each contrast.  Up to ``_STACK``
    contrasts at a time go in as three (k, 1, 1) arrays, which broadcast
    against the alpha-only terms of a two-dimensional grid to one grid per
    spec: the alpha-only terms are computed once per stack, and the
    temporaries stay a few MB however many specs share an alpha."""
    for start in range(0, len(contrasts), _STACK):
        stack = contrasts[start : start + _STACK]
        yield from form(tuple(np.array(terms).reshape(-1, 1, 1) for terms in zip(*stack)))(*grid)


def _shared_alpha(specs) -> float:
    alpha = specs[0].alpha
    if any(spec.alpha != alpha for spec in specs):
        raise ValueError("specs optimized in one pass must share one alpha")
    return alpha


def _click_form(alpha: float, contrast, detector: DetectorModel, n_max: int):
    """The closed form of ``displaced_click_fidelity`` as a function of the
    displacement b.  With the contrast of one spec (Python scalars, from
    ``_contrast``) it is a function of one Python complex in
    ``math``/``cmath`` arithmetic; with the contrasts of k specs stacked by
    ``_grids`` it scores a two-dimensional array of b for all k at once,
    returning shape (k, *b.shape).  No matrix is built.

    D(b)^dag |a_k> = f_k |gamma_k>, with gamma_k = a_k - b and
    f_k = e^{i Im(conj(b) a_k) - |gamma_k|^2 / 2}.  An ideal counter sums
    max(d_n, 0) over n <= n_max, where d_n = |<n|D^dag|t0>|^2 -
    |<n|D^dag|t1>|^2 comes from the amplitudes u_k[n] = f_k gamma_k^n / sqrt(n!)
    through |u_k[n]|^2 = e^{-|gamma_k|^2} |gamma_k|^{2n} / n! and
    conj(u_0[n]) u_1[n] = conj(f_0) f_1 (conj(gamma_0) gamma_1)^n / n!: two
    real running products and one complex one, each the size of b.  This is
    the partition rule of the Fock model, whose ties add nothing.  For a
    click detector the loss weights (1 - eta)^n sum every photon number in
    closed form: <a_k|P0|a_l> / (1 - nu) =
    conj(f_k) f_l exp((1 - eta) conj(gamma_k) gamma_l), with b scaled by
    the visibility.  The products and exponentials depend on alpha and b
    only; just d_n (ideal) or the no-click sum (click) is per spec.
    """
    s00, s11, s01 = contrast
    scalar = not isinstance(s00, np.ndarray)
    exp, cexp = (math.exp, cmath.exp) if scalar else (np.exp, np.exp)

    if detector.is_ideal:

        def ideal(b):
            g0, g1 = alpha - b, -alpha - b
            q0 = g0.real * g0.real + g0.imag * g0.imag
            q1 = g1.real * g1.real + g1.imag * g1.imag
            r = g0.conjugate() * g1
            p0, p1 = exp(-q0), exp(-q1)  # |f_0|^2, |f_1|^2
            c = cexp(-0.5 * (q0 + q1) + 2j * alpha * b.imag)  # conj(f_0) f_1
            total = 0.0
            for n in range(n_max + 1):
                if n:
                    p0, p1, c = p0 * q0 / n, p1 * q1 / n, c * r / n
                d = s00 * p0 + s11 * p1 + (s01 * c).real
                total = total + d * (d > 0.0)
            return 0.5 * (1.0 + total)

        return ideal

    v, eta, bright = detector.visibility, detector.eta, 1.0 - detector.nu

    def click(b):
        b = v * b
        g0, g1 = alpha - b, -alpha - b
        q0 = g0.real * g0.real + g0.imag * g0.imag
        q1 = g1.real * g1.real + g1.imag * g1.imag
        # conj(f_0) f_1 exp((1 - eta) conj(gamma_0) gamma_1) as one exponential
        cross = cexp(-0.5 * (q0 + q1) + 2j * alpha * b.imag + (1.0 - eta) * g0.conjugate() * g1)
        no_click = s00 * exp(-eta * q0) + s11 * exp(-eta * q1) + (s01 * cross).real
        return 0.5 * (1.0 + bright * no_click)

    return click


def _homodyne_form(alpha: float, contrast):
    """The closed form of ``homodyne_fidelity`` as a function of threshold
    and phase: of two floats in ``math`` arithmetic for the contrast of one
    spec (scipy's ``erfc``, imported here, only for the complex argument),
    else of broadcastable two-dimensional arrays for k stacked contrasts,
    returning one grid per spec.

    For coherent wavefunctions int_x^inf conj(psi_a) psi_b =
    1/2 erfc(x - s) exp(s^2 - (conj(a)^2 + b^2)/2 - (|a|^2 + |b|^2)/2) with
    s = (conj(a) + b)/sqrt(2).  The phase rotates a_k = +-alpha to
    +-alpha e^{-i theta}; the exponent then vanishes for k = l and is
    -2 alpha^2 for k != l, so with c + i d = sqrt(2) alpha e^{i theta} the
    matrix elements are erfc(x - c)/2, erfc(x + c)/2 and
    e^{-2 alpha^2} erfc(x - i d)/2, computed once for every spec.
    """
    from scipy.special import erfc

    s00, s11, s01 = contrast
    scalar = not isinstance(s00, np.ndarray)
    radius = math.sqrt(2.0) * alpha
    overlap = math.exp(-2.0 * alpha**2)
    cos, sin, real_erfc = (math.cos, math.sin, math.erfc) if scalar else (np.cos, np.sin, erfc)
    to_complex = complex if scalar else np.asarray  # scipy returns numpy scalars

    def homodyne(x, theta):
        c, d = radius * cos(theta), radius * sin(theta)
        cross = overlap * to_complex(erfc(x - 1j * d))
        upper = s00 * real_erfc(x - c) + s11 * real_erfc(x + c) + (s01 * cross).real
        return 0.5 * (1.0 + 0.5 * upper)

    return homodyne


def _first_maximum(vals: np.ndarray) -> int:
    """Flat index of the first entry within 16 ulps of the largest.  Mirror
    images, such as beta and conj(beta) at phi = 0, score the same up to
    rounding noise; this sends such ties to the first in grid order."""
    top = vals.max()
    return int(np.argmax(vals >= top - 16.0 * np.spacing(top)))


_value = itemgetter(0)


def _nelder_mead(fun, x0, maxiter: int):
    """Minimize ``fun(x, y)`` from ``x0 = (x, y)`` by the two-variable
    Nelder-Mead simplex method with fixed coefficients (Lagarias, Reeds,
    Wright & Wright, SIAM J. Optim. 9, 1998), in Python floats.

    Every step is that of scipy's default (non-adaptive) Nelder-Mead, to the
    last bit: reflection 1, expansion 2, contractions and shrink 1/2; a
    start simplex that scales each coordinate by 1.05, or sets it to 0.00025
    where it is exactly 0; a stable sort of the vertices by value; and a stop
    once every vertex lies within ``REFINE_TOL`` of the best one in each
    coordinate and in value, or after ``maxiter - 1`` iterations.
    Returns ``((x, y), value, evaluations)`` of the best vertex.
    """
    bx, by = x0
    sx = 1.05 * bx if bx != 0.0 else 0.00025
    sy = 1.05 * by if by != 0.0 else 0.00025
    start = ((bx, by), (sx, by), (bx, sy))
    sim = sorted([(fun(x, y), x, y) for x, y in start], key=_value)
    nfev = 3
    for _ in range(maxiter - 1):
        (fb, bx, by), (fm, mx, my), (fw, wx, wy) = sim
        if (
            abs(mx - bx) <= REFINE_TOL
            and abs(my - by) <= REFINE_TOL
            and abs(wx - bx) <= REFINE_TOL
            and abs(wy - by) <= REFINE_TOL
            and abs(fb - fm) <= REFINE_TOL
            and abs(fb - fw) <= REFINE_TOL
        ):
            break
        cx, cy = (bx + mx) / 2, (by + my) / 2  # centroid of all but the worst
        xr, yr = 2 * cx - wx, 2 * cy - wy
        fr = fun(xr, yr)
        nfev += 1
        if fr < fb:
            xe, ye = 3 * cx - 2 * wx, 3 * cy - 2 * wy
            fe = fun(xe, ye)
            nfev += 1
            sim[2] = (fe, xe, ye) if fe < fr else (fr, xr, yr)
        elif fr < fm:
            sim[2] = (fr, xr, yr)
        else:
            if fr < fw:  # contract outside
                xc, yc = 1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy
                fc = fun(xc, yc)
                accept = fc <= fr
            else:  # contract inside
                xc, yc = 0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy
                fc = fun(xc, yc)
                accept = fc < fw
            nfev += 1
            if accept:
                sim[2] = (fc, xc, yc)
            else:  # shrink toward the best vertex
                for j in (1, 2):
                    _, x, y = sim[j]
                    x, y = bx + 0.5 * (x - bx), by + 0.5 * (y - by)
                    sim[j] = (fun(x, y), x, y)
                nfev += 2
        sim.sort(key=_value)
    f, x, y = sim[0]
    return (x, y), f, nfev


def displaced_click_fidelity(
    spec: ScsMeasurementSpec,
    beta: complex,
    detector: DetectorModel,
    dim,
) -> float:
    """Fidelity of the displaced counting measurement at a fixed ``beta`` in
    the truncated Fock model.

    An ideal counter assigns each photon number to the target whose
    displaced overlap dominates; a click detector weights the no-click
    outcome by loss and dark counts, behind a displacement scaled by the
    interference visibility.
    """
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    scale = 1.0 if detector.is_ideal else detector.visibility
    D = _displacement_matrix(scale * complex(beta), dim)
    r0 = np.abs(t0.amps.conj() @ D) ** 2
    r1 = np.abs(t1.amps.conj() @ D) ** 2
    if detector.is_ideal:
        keep = r0 >= r1
        return float(0.5 * ((r0 * keep).sum() + 1.0 - (r1 * keep).sum()))
    weights = _outcome_weights(np.arange(dim.size) == 0, detector.eta)
    return float(0.5 * (1.0 + (1.0 - detector.nu) * ((r0 - r1) @ weights)))


def optimize_displacement(
    spec: ScsMeasurementSpec,
    detector: DetectorModel,
    dim,
) -> tuple[complex, float]:
    """Maximize the displaced-counting fidelity over complex ``beta``.

    The coherent-state closed form searches (``_search_displacements``): a
    coarse polar grid (amplitude step ``AMPLITUDE_STEP`` up to the largest
    amplitude the truncation supports, phase step ``PHASE_STEP``) scored as
    one array, then ``_nelder_mead`` refinement in the (Re, Im) plane on the
    scalar closed form; amplitudes outside the supported disc are rejected
    by a penalty, and the refined point is only accepted when it improves on
    the grid.  The Fock model scores the result: the returned fidelity is
    ``displaced_click_fidelity`` at the returned ``beta``.  Fully
    deterministic: grid ties within a few ulps go to the first maximum in
    radius-major, phase-ascending order.
    """
    (beta,) = _search_displacements([spec], detector, dim)
    return beta, displaced_click_fidelity(spec, beta, detector, dim)


def _search_displacements(specs, detector: DetectorModel, dim) -> list[complex]:
    """The optimal ``beta`` of every spec of a list that shares one alpha,
    from the coherent-state closed form alone: one grid call scores the
    polar grid for all of them, then each runs its own refinement.  No Fock
    model is built."""
    if not specs:
        return []
    alpha = _shared_alpha(specs)
    dim = as_dim(dim)
    r_max = min(AMPLITUDE_CEILING, max_guarded_amplitude(dim, AMPLITUDE_STEP))
    radii = np.arange(0.0, r_max + 1e-12, AMPLITUDE_STEP)
    n_phases = int(round(2.0 * math.pi / PHASE_STEP))
    phases = np.arange(n_phases) * PHASE_STEP

    def form(contrast):
        return _click_form(alpha, contrast, detector, dim.n_max)

    contrasts = [_contrast(spec) for spec in specs]
    grids = _grids(form, contrasts, radii[:, None] * np.exp(1j * phases))
    betas = []
    for contrast, vals in zip(contrasts, grids):
        i, k = np.unravel_index(_first_maximum(vals), vals.shape)
        best_f = float(vals[i, k])
        r = float(radii[i])
        best_beta = complex(r * math.cos(phases[k]), r * math.sin(phases[k]))
        score = form(contrast)

        def negated(x: float, y: float) -> float:
            b = complex(x, y)
            excess = abs(b) - r_max
            if excess > 0.0:
                return 1.0 + excess
            return -score(b)

        (x, y), f, _ = _nelder_mead(negated, (best_beta.real, best_beta.imag), 600)
        refined = complex(x, y)
        if -f >= best_f and abs(refined) <= r_max:
            best_beta = refined
        betas.append(best_beta)
    return betas


def homodyne_fidelity(
    spec: ScsMeasurementSpec,
    x_th: float,
    lo_phase: float,
    dim,
) -> float:
    """Fidelity of thresholded homodyne readout at fixed threshold and phase
    in the truncated Fock model."""
    dim = as_dim(dim)
    t0, t1 = scs_projectors(spec, dim)
    interval = quadrature_interval_operator(x_th, np.inf, dim)
    ramp = np.exp(-1j * lo_phase * np.arange(dim.size))
    w0 = ramp * t0.amps
    w1 = ramp * t1.amps
    v0 = np.sum((w0.conj() @ interval) * w0).real
    v1 = np.sum((w1.conj() @ interval) * w1).real
    return float(0.5 * (v0 + 1.0 - v1))


def optimize_homodyne(spec: ScsMeasurementSpec, dim) -> tuple[float, float, float]:
    """Maximize the homodyne fidelity over threshold and local-oscillator phase.

    The coherent-state closed form searches (``_search_homodynes``): a grid
    over ``x_th`` in ``THRESHOLD_RANGE`` (step ``THRESHOLD_STEP``) times
    sixty phases in [0, pi), scored as one array, then clamped
    ``_nelder_mead`` refinement on the scalar closed form.  Grid ties within
    a few ulps go to the first maximum in threshold-major order.  The Fock
    model scores the result.  Returns ``(x_th_opt, lo_phase_opt, f)`` with
    ``f = homodyne_fidelity(spec, x_th_opt, lo_phase_opt, dim)``.
    """
    ((x_opt, th_opt),) = _search_homodynes([spec])
    return x_opt, th_opt, homodyne_fidelity(spec, x_opt, th_opt, dim)


def _search_homodynes(specs) -> list[tuple[float, float]]:
    """The optimal ``(x_th, lo_phase)`` of every spec of a list that shares
    one alpha, from the coherent-state closed form alone: one grid call
    scores the threshold/phase grid for all of them, then each runs its own
    refinement.  No Fock model is built."""
    if not specs:
        return []
    alpha = _shared_alpha(specs)
    lo, hi = THRESHOLD_RANGE
    xs = np.arange(lo, hi + 1e-9, THRESHOLD_STEP)
    thetas = np.arange(60) * (math.pi / 60.0)
    theta_cap = math.pi * (1.0 - 1e-12)

    def clamp(x: float, theta: float) -> tuple[float, float]:
        return min(max(x, lo), hi), min(max(theta, 0.0), theta_cap)

    def form(contrast):
        return _homodyne_form(alpha, contrast)

    contrasts = [_contrast(spec) for spec in specs]
    grids = _grids(form, contrasts, xs[:, None], thetas)
    optima = []
    for contrast, vals in zip(contrasts, grids):
        i, k = np.unravel_index(_first_maximum(vals), vals.shape)
        best = (float(vals[i, k]), float(xs[i]), float(thetas[k]))
        score = form(contrast)

        def negated(x: float, theta: float) -> float:
            return -score(*clamp(x, theta))

        (x, th), f, _ = _nelder_mead(negated, best[1:], 400)
        optima.append(clamp(x, th) if -f >= best[0] else best[1:])
    return optima


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


def _optimized_reports(specs, detector: DetectorModel, dim) -> list[FidelityReport | Exception]:
    """The outcome of optimizing all three strategies at every spec of a
    list that shares one alpha: both closed-form searches run once for the
    whole list, then the Fock model scores each point and ``verify`` checks
    its report.  A point whose score or check fails gets its exception in
    place of a report; a failed search is every point's outcome."""
    try:
        betas = _search_displacements(specs, detector, dim)
        homodynes = _search_homodynes(specs)
    except Exception as exc:  # noqa: BLE001 - charged to every point of the group
        return [exc] * len(specs)
    outcomes: list[FidelityReport | Exception] = []
    for spec, beta, (x_th, lo_phase) in zip(specs, betas, homodynes):
        try:
            outcome = FidelityReport(
                f_dp=displaced_click_fidelity(spec, beta, detector, dim),
                f_hd=homodyne_fidelity(spec, x_th, lo_phase, dim),
                f_pn=pnrd_fidelity(spec),
                beta_opt=beta,
                x_th_opt=x_th,
                lo_phase_opt=lo_phase,
                spec=spec,
                detector=detector,
            )
            outcome.verify(dim)
        except Exception as exc:  # noqa: BLE001 - charged to this point alone
            outcome = exc
        outcomes.append(outcome)
    return outcomes


def sweep(
    grid: SweepGrid,
    detector: DetectorModel = IDEAL_DETECTOR,
    dim=20,
    errors: list | None = None,
) -> list[FidelityReport]:
    """One optimized FidelityReport per grid point, in grid order.

    The points that share an alpha^2 are optimized in one pass
    (``_optimized_reports``).  A failing point does not abort the sweep:
    its exception is appended to ``errors`` (when given) as
    ``(index, point, exception)`` and reported as a warning, and the point
    is dropped from the output.
    """
    dim = as_dim(dim)
    points = list(grid.points())
    specs = [ScsMeasurementSpec.from_c0sq(math.sqrt(a2), c0sq, phi) for c0sq, a2, phi in points]
    groups: dict[float, list[int]] = {}
    for idx, spec in enumerate(specs):
        groups.setdefault(spec.alpha, []).append(idx)

    outcomes: dict[int, FidelityReport | Exception] = {}
    for indices in groups.values():
        outcomes.update(zip(indices, _optimized_reports([specs[i] for i in indices], detector, dim)))

    reports = []
    for idx, point in enumerate(points):
        outcome = outcomes[idx]
        if isinstance(outcome, Exception):
            if errors is not None:
                errors.append((idx, point, outcome))
            warnings.warn(f"sweep point {idx} {point} failed: {outcome}", stacklevel=2)
        else:
            reports.append(outcome)
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
