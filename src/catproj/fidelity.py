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
optimizers search has a closed form in coherent-state overlaps, which
needs no N x N matrix: the grids score whole arrays at once, and an
in-repo two-variable Nelder-Mead refines the grid's best point on the same
closed form in ``math``/``cmath`` scalar arithmetic.  For an ideal counter
that scalar form ends its photon-number sum early, once a bound on the
remaining terms shows each of them is negative and would add nothing.  The
truncated Fock model scores the point each search returns, so every
reported number is the Fock model's.

Only a 2 x 2 contrast depends on the superposition weight and phase; the
rest of each closed form depends on alpha alone, so the specs that share
an alpha are searched in one pass.  A ``SearchPlan`` holds the specs of
one call, grouped by alpha, and checks them against the cutoff once, when
it is built.  Its ``stacks`` are the one search-and-score route, shared
with the tomography sweep (``experiment.reconstruction_sweep``): the
displacement search, then one D(beta) per point for its f_dp and its
``verify`` check.  ``optimized_reports`` adds the homodyne search, one
interval operator per point and one eigenvalue call per stack.  Each row
of a stack gets the bits it gets alone, so ``optimize`` (a plan of one
spec), ``displaced_povm`` and ``verify`` share the stacked kernels.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from .fock import (
    AMPLITUDE_CEILING,
    AMPLITUDE_STEP,
    MIN_ALPHA,
    ScsMeasurementSpec,
    TruncationDim,
    _guarded_displacements,
    as_dim,
    cat_norm_squares,
    displacement_operator,
    max_guarded_amplitude,
    scs_projectors,
)
from .povm import (
    IDEAL_DETECTOR,
    DetectorModel,
    PovmPair,
    _counting_elements,
    _displaced_overlaps,
    _failures,
    _outcome_weights,
    quadrature_interval_operator,
)

#: coarse polar search grid for the displacement optimizer (amplitudes from ``fock``)
PHASE_STEP = math.pi / 60.0

#: search box for the homodyne optimizer
THRESHOLD_RANGE = (-6.0, 6.0)
THRESHOLD_STEP = 0.1

#: simplex refinement tolerance (in the objective)
REFINE_TOL = 1e-8

REPORT_CONSISTENCY_TOL = 1e-10

#: most specs one grid call, or one Fock scoring and checking pass, holds at once
_STACK = 32


def fidelity(pair: PovmPair, spec: ScsMeasurementSpec) -> float:
    """Average of the two diagonal POVM matrix elements in the target basis."""
    (val,) = _povm_fidelities(pair.pi0.entries[None], pair.pi1.entries[None], _targets([spec], pair.dim))
    return float(val)


def _targets(specs, dim: TruncationDim) -> tuple[np.ndarray, np.ndarray]:
    """The target vectors ``(t0, t1)`` of a list of specs as (k, N) stacks."""
    t0, t1 = np.empty((2, len(specs), dim.size), dtype=complex)
    for i, spec in enumerate(specs):
        t0[i], t1[i] = (t.amps for t in scs_projectors(spec, dim))
    return t0, t1


def _povm_fidelities(pi0: np.ndarray, pi1: np.ndarray, targets) -> np.ndarray:
    """(<t0|pi0|t0> + <t1|pi1|t1>) / 2 for each row of element stacks (k, N, N)
    and target stacks (k, N): the real part, once no imaginary part exceeds 1e-10."""
    v0, v1 = ((t.conj()[..., None, :] @ (P @ t[..., None]))[..., 0, 0] for P, t in zip((pi0, pi1), targets))
    val = 0.5 * (v0 + v1)
    imag = val.imag[np.abs(val.imag) > 1e-10]
    if imag.size:
        raise ArithmeticError(f"fidelity has a non-negligible imaginary part {imag[0]:.3e}")
    return val.real


def pnrd_fidelity(spec: ScsMeasurementSpec) -> float:
    """Best achievable fidelity of undisplaced photon-number parity readout."""
    return float(max(spec.c0**2, spec.c1**2))


def displaced_povm(spec: ScsMeasurementSpec, beta: complex, detector: DetectorModel, dim) -> PovmPair:
    """POVM realized by displacing then counting with the given detector.

    An ideal detector resolves photon number and yields the exact
    two-outcome partition; any imperfection switches to the on/off click
    model, which is how the measurement is actually operated.
    """
    dim = as_dim(dim)
    D = displacement_operator(_shift(beta, detector), dim).entries
    (pi0,) = _displaced_elements(D[None], _targets([spec], dim), detector)
    return PovmPair.checked(dim, pi0, np.eye(dim.size) - pi0)


def _shift(beta: complex, detector: DetectorModel) -> complex:
    """The displacement the counter sees: ``beta``, scaled by the
    interference visibility for a click detector."""
    return (1.0 if detector.is_ideal else detector.visibility) * complex(beta)


def _displaced_elements(D: np.ndarray, targets, detector: DetectorModel) -> np.ndarray:
    """The pi0 of ``displaced_povm`` for a stack of guarded D at ``_shift(beta,
    detector)``: the targets' partition if ideal, else the lossy vacuum."""
    if detector.is_ideal:
        return _counting_elements(D, targets)
    return _counting_elements(D, eta=detector.eta, nu=detector.nu)


def _contrast(spec: ScsMeasurementSpec) -> tuple[float, float, complex]:
    """(S_00, S_11, 2 S_01) as Python scalars, for the Hermitian
    S[k, l] = conj(C_0k) C_0l - conj(C_1k) C_1l, where t_j = sum_k C[j, k] |a_k>
    writes the target vectors as sums of two untruncated coherent states,
    a = (alpha, -alpha), the cat vectors normalized by
    N_pm^2 = 2 (1 +- exp(-2 alpha^2)) (``cat_norm_squares``).

    For any outcome-0 element P with M_kl = <a_k|P|a_l>, <t0|P|t0> -
    <t1|P|t1> = sum_kl S_kl M_kl = S_00 M_00 + S_11 M_11 + Re(2 S_01 M_01), so
    a fidelity F = (1 + <t0|P|t0> - <t1|P|t1>) / 2 needs only the 2 x 2
    coherent-state matrix elements of P, which do not depend on c0 or phi.
    """
    nplus_sq, nminus_sq = cat_norm_squares(spec.alpha)
    plus = np.array([1.0, 1.0]) / math.sqrt(nplus_sq)
    minus = np.array([1.0, -1.0]) / math.sqrt(nminus_sq)
    u = spec.c1 * complex(math.cos(spec.phi), math.sin(spec.phi))
    C = np.array([spec.c0 * plus + u * minus, u.conjugate() * plus - spec.c0 * minus])
    S = C[0].conj()[:, None] * C[0] - C[1].conj()[:, None] * C[1]
    return float(S[0, 0].real), float(S[1, 1].real), complex(2.0 * S[0, 1])


def _grids(form, contrasts, *grid):
    """Yield ``form(contrast)(*grid)`` for each contrast.  Up to ``_STACK``
    contrasts at a time go in as three (k, 1, 1) arrays, which broadcast
    against the alpha-only terms of a two-dimensional grid to one grid per
    spec (the ideal counter instead contracts one contrast row at a time
    with its alpha-only buffers): the alpha-only terms are computed once
    per stack, each spec's grid is the one it would get alone, and the
    temporaries stay a few MB however many specs share an alpha."""
    for start in range(0, len(contrasts), _STACK):
        stack = contrasts[start : start + _STACK]
        yield from form(tuple(np.array(terms).reshape(-1, 1, 1) for terms in zip(*stack)))(*grid)


def _mirrored_grids(form, contrasts, mirror, n: int, *half):
    """Yield ``form(contrast)`` on an n-column grid for each contrast, from
    one ``_grids`` call on its first columns ``half`` only.  ``mirror`` maps
    a contrast to its partner, whose form is the mirror image of its own:
    column j beyond ``half`` of a contrast's grid is column n - j of its
    partner's.  Each contrast goes into the stack next to its partner, so
    the alpha-only terms are computed on half the points, and the full grid
    comes back in the order a direct call on all n columns gives.  The
    mirror identities are exact, so a mirrored entry differs from a directly
    scored one by rounding only."""
    grids = _grids(form, list(itertools.chain.from_iterable((c, mirror(c)) for c in contrasts)), *half)
    for own, partner in zip(grids, grids):
        yield np.concatenate([own, partner[..., n - own.shape[-1] : 0 : -1]], axis=-1)


def _conjugated(contrast):
    """The partner contrast of the displacement forms: its form at b is this
    contrast's at conj(b), since b -> conj(b) conjugates c and leaves
    p_0, p_1 (ideal) or the exponents q_0, q_1 (click) as they are."""
    s00, s11, s01 = contrast
    return s00, s11, s01.conjugate()


def _swapped(contrast):
    """The partner contrast of the homodyne form: its form at phase theta is
    this contrast's at pi - theta, since theta -> pi - theta negates c, which
    swaps the two real ``erfc`` terms, and leaves d as it is."""
    s00, s11, s01 = contrast
    return s11, s00, s01


def _click_form(alpha: float, contrast, detector: DetectorModel, n_max: int):
    """The closed form of the displaced-counting fidelity (``_click_score``)
    as a function of the displacement b.  With the contrast of one spec
    (Python scalars, from ``_contrast``) it is a function of one Python
    complex in ``math``/``cmath`` arithmetic; with the contrasts of k specs
    stacked by ``_grids`` it scores a two-dimensional array of b for all k
    at once, returning shape (k, *b.shape).  No matrix is built; the ideal
    counter's two routes are ``_ideal_point`` and ``_ideal_grid``.

    D(b)^dag |a_k> = f_k |gamma_k>, with gamma_k = a_k - b and
    f_k = e^{i Im(conj(b) a_k) - |gamma_k|^2 / 2}.  An ideal counter sums
    max(d_n, 0) over n <= n_max, where d_n = |<n|D^dag|t0>|^2 -
    |<n|D^dag|t1>|^2 comes from the amplitudes u_k[n] = f_k gamma_k^n / sqrt(n!)
    through |u_k[n]|^2 = e^{-|gamma_k|^2} |gamma_k|^{2n} / n! and
    conj(u_0[n]) u_1[n] = conj(f_0) f_1 (conj(gamma_0) gamma_1)^n / n!: two
    real running products and one complex one, each the size of b, so
    d_n = S_00 p_0 + S_11 p_1 + Re(2 S_01) Re c - Im(2 S_01) Im c.  This is
    the partition rule of the Fock model, whose ties add nothing.  For a
    click detector the loss weights (1 - eta)^n sum every photon number in
    closed form: <a_k|P0|a_l> / (1 - nu) =
    conj(f_k) f_l exp((1 - eta) conj(gamma_k) gamma_l), with b scaled by
    the visibility.  The products and exponentials depend on alpha and b
    only; just d_n (ideal) or the no-click sum (click) is per spec.  The
    scalar ideal form stops summing once a closed-form bound shows every
    remaining d_n is negative, so its values stay those of the full sum.
    """
    s00, s11, s01 = contrast
    scalar = not isinstance(s00, np.ndarray)
    if detector.is_ideal:
        return (_ideal_point if scalar else _ideal_grid)(alpha, contrast, n_max)

    exp, cexp = (math.exp, cmath.exp) if scalar else (np.exp, np.exp)
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


def _ideal_point(alpha: float, contrast, n_max: int):
    """The ideal-counter closed form of ``_click_form`` for one spec, as a
    function of one Python complex b.  The running products c = conj(f_0) f_1
    (conj(gamma_0) gamma_1)^n / n! and its ratio r are carried as real pairs
    through exactly the operations Python's complex arithmetic performs on
    them.

    The sum over n stops once every remaining d_n is provably negative.  Let
    l be the target with the larger q (q_l > q_s) and rho_n = p_s,n / p_l,n =
    e^{q_l - q_s} (q_s / q_l)^n, which never increases.  Since |c| =
    sqrt(p_0 p_1), d_n <= p_l,n (S_ll + S_ss+ rho_n + |2 S_01| sqrt(rho_n))
    with S_ss+ = max(S_ss, 0).  So when S_ll < 0 and rho_n < t*^2, where t* is
    the positive root of S_ss+ t^2 + |2 S_01| t = -S_ll (1 - 1e-9), d_n and
    every later term are negative, and the 1e-9 margin dwarfs the rounding
    of the running products.  t* is found once per contrast for each choice
    of l; per b the rule costs rho_0 and q_s / q_l, then one multiply and one
    compare per n.  Where it cannot apply (S_ll >= 0, q_0 = q_1, or rho
    not finite) the sum runs to n_max.  Every value is therefore, bit for
    bit, the full sum in complex arithmetic."""
    s00, s11, s01 = contrast
    wr, wi = s01.real, s01.imag
    divisors = [float(n) for n in range(1, n_max + 1)]  # the same quotients as int n, faster

    def cut(s_ll: float, s_ss: float) -> float:
        # t*^2, with t* = 2k / (a + sqrt(a^2 + 4sk)) the positive root without
        # cancellation, or inf if a = s = 0; 0.0 (never stop) unless S_ll < 0
        if not s_ll < 0.0:
            return 0.0
        k, a, s = -s_ll * (1.0 - 1e-9), abs(s01), max(s_ss, 0.0)
        root = a + math.sqrt(a * a + 4.0 * s * k)
        return (2.0 * k / root) ** 2 if root else math.inf

    cut0, cut1 = cut(s00, s11), cut(s11, s00)

    def ideal(b):
        g0, g1 = alpha - b, -alpha - b
        q0 = g0.real * g0.real + g0.imag * g0.imag
        q1 = g1.real * g1.real + g1.imag * g1.imag
        r = g0.conjugate() * g1
        rr, ri = r.real, r.imag
        p0, p1 = math.exp(-q0), math.exp(-q1)  # |f_0|^2, |f_1|^2
        c = cmath.exp(-0.5 * (q0 + q1) + 2j * alpha * b.imag)  # conj(f_0) f_1
        cr, ci = c.real, c.imag
        d = s00 * p0 + s11 * p1 + (wr * cr - wi * ci)
        total = d if d > 0.0 else 0.0
        # rho_n = p_s,n / p_l,n never increases; once rho_n < t*^2, every later d_n < 0
        if q0 > q1:
            ql, qs, stop = q0, q1, cut0
        elif q1 > q0:
            ql, qs, stop = q1, q0, cut1
        else:
            ql, qs, stop = 1.0, 1.0, 0.0
        rho, ratio = (math.exp(ql - qs) if ql - qs < 709.0 else math.inf), qs / ql
        for n in divisors:
            rho *= ratio
            if rho < stop:
                break
            p0, p1 = p0 * q0 / n, p1 * q1 / n
            cr, ci = (cr * rr - ci * ri) / n, (cr * ri + ci * rr) / n
            d = s00 * p0 + s11 * p1 + (wr * cr - wi * ci)
            if d > 0.0:
                total += d
        return 0.5 * (1.0 + total)

    return ideal


def _ideal_grid(alpha: float, contrast, n_max: int):
    """The ideal-counter closed form of ``_click_form`` for k specs stacked
    by ``_grids``, as a function of an array of b; returns (k, *b.shape).

    The alpha-only running products p_0, p_1, Re c and Im c live in four
    grid-sized buffers, updated in place in real arithmetic.  Each spec's
    d_n is one product of its row W = (S_00, S_11, Re 2S_01, -Im 2S_01) with
    those four buffers, so a spec's grid is the same to the last bit however
    many specs share the stack, and no (n_max + 1) x grid array is built.

    ``_ideal_point``'s stop rule is left out on purpose.  It never ends a
    whole grid: every polar grid holds b = 0, where q_0 = q_1, so some point
    needs every n up to n_max.  Dropping only the points it has certified
    would move the others' bits, since ``np.dot`` may round an element
    differently when the array is shorter.  And one ``np.matmul`` of W with
    the buffers, in place of a ``np.dot`` per row, makes a spec's bits
    depend on how many specs share its stack, which
    ``test_closed_forms_score_whole_grids`` forbids."""
    s00, s11, s01 = (np.ravel(term) for term in contrast)
    W = np.stack([s00, s11, s01.real, -s01.imag], axis=1)

    def ideal(b):
        shape = np.shape(b)
        b = np.ravel(b)
        g0, g1 = alpha - b, -alpha - b
        q0 = g0.real * g0.real + g0.imag * g0.imag
        q1 = g1.real * g1.real + g1.imag * g1.imag
        r = g0.conjugate() * g1
        rr, ri = r.real, r.imag
        basis = np.empty((4, b.size))
        p0, p1, cr, ci = basis
        np.exp(-q0, out=p0)  # |f_0|^2
        np.exp(-q1, out=p1)  # |f_1|^2
        c = np.exp(-0.5 * (q0 + q1) + 2j * alpha * b.imag)  # conj(f_0) f_1
        cr[:], ci[:] = c.real, c.imag
        u, v = np.empty((2, b.size))
        d = np.empty((len(W), b.size))
        total = np.zeros_like(d)
        for n in range(n_max + 1):
            if n:
                p0 *= q0
                p0 /= n
                p1 *= q1
                p1 /= n
                np.multiply(cr, ri, out=u)
                np.multiply(ci, ri, out=v)
                cr *= rr
                cr -= v
                cr /= n
                ci *= rr
                ci += u
                ci /= n
            for w, row in zip(W, d):
                np.dot(w, basis, out=row)
            total += np.maximum(d, 0.0, out=d)
        return (0.5 * (1.0 + total)).reshape((len(W),) + shape)

    return ideal


def _homodyne_form(alpha: float, contrast):
    """The closed form of the homodyne fidelity (``_homodyne_score``) as a
    function of threshold and phase: of two floats in ``math`` arithmetic
    for the contrast of one spec (scipy's ``erfc``, imported here, only for
    the complex argument), else of broadcastable two-dimensional arrays
    for k stacked contrasts, returning one grid per spec.

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


def _click_score(targets, D: np.ndarray, detector: DetectorModel) -> np.ndarray:
    """Fidelity of the displaced counting measurement in the truncated Fock
    model for each row of target stacks (k, N) and a D stack (k, N, N) at
    ``_shift(beta, detector)``: an ideal counter assigns each photon number
    to the target whose displaced overlap dominates, and a click detector
    weights the no-click outcome by loss and dark counts (one dot product
    per row: a (k, N) @ (N,) product would round differently with k)."""
    r0, r1 = _displaced_overlaps(targets, D)
    if detector.is_ideal:
        keep = r0 >= r1
        return 0.5 * ((r0 * keep).sum(axis=-1) + 1.0 - (r1 * keep).sum(axis=-1))
    weights = _outcome_weights(np.arange(r0.shape[-1]) == 0, detector.eta)
    return 0.5 * (1.0 + (1.0 - detector.nu) * ((r0 - r1)[..., None, :] @ weights)[..., 0])


def _search_displacements(specs, detector: DetectorModel, dim: TruncationDim) -> list[complex]:
    """The optimal ``beta`` of every spec of a list that shares one alpha
    (one of ``SearchPlan.groups``, or one spec), from the coherent-state
    closed form alone: one grid call scores the polar grid for all of them,
    then each runs its own refinement.  No Fock model is built.  The grid is
    scored on its 61 phases in [0, pi], for each spec and its
    ``_conjugated`` partner (``_mirrored_grids``); the first maximum and the
    refinement's start come from the whole 120-phase grid, so a tie between
    b and conj(b) still goes to the upper half plane."""
    alpha = specs[0].alpha
    r_max = max_guarded_amplitude(dim)
    radii = np.arange(0.0, r_max + 1e-12, AMPLITUDE_STEP)
    n_phases = int(round(2.0 * math.pi / PHASE_STEP))
    phases = np.arange(n_phases) * PHASE_STEP
    upper = radii[:, None] * np.exp(1j * phases[: n_phases // 2 + 1])  # 0 <= phase <= pi

    def form(contrast):
        return _click_form(alpha, contrast, detector, dim.n_max)

    contrasts = [_contrast(spec) for spec in specs]
    grids = _mirrored_grids(form, contrasts, _conjugated, n_phases, upper)
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


def _homodyne_score(targets, E: np.ndarray, lo_phase: np.ndarray) -> np.ndarray:
    """Fidelity of thresholded homodyne readout in the truncated Fock model
    for each row of the target stacks (k, N), a stack (k, N, N) of prebuilt
    interval operators E of [x_th, inf) and the (k,) local-oscillator phases,
    each row by its own products and sums, as for a row alone."""
    ramp = np.exp(-1j * lo_phase[..., None] * np.arange(E.shape[-1]))
    v0, v1 = (np.sum((np.conj(w)[..., None, :] @ E)[..., 0, :] * w, -1).real for w in (ramp * t for t in targets))
    return 0.5 * (v0 + 1.0 - v1)


def _search_homodynes(specs) -> list[tuple[float, float]]:
    """The optimal ``(x_th, lo_phase)`` of every spec of a list that shares
    one alpha (one of ``SearchPlan.groups``), from the coherent-state closed
    form alone: one grid call scores the threshold/phase grid for all of
    them, then each runs its own refinement.  No Fock model is built.  The
    grid is scored on its 31 phases in [0, pi/2], for each spec and its
    ``_swapped`` partner (``_mirrored_grids``), so the complex ``erfc``,
    most of its cost, runs on half the points; the first maximum and the
    refinement's start come from the whole 60-phase grid."""
    alpha = specs[0].alpha
    lo, hi = THRESHOLD_RANGE
    xs = np.arange(lo, hi + 1e-9, THRESHOLD_STEP)
    n_thetas = 60
    thetas = np.arange(n_thetas) * (math.pi / n_thetas)
    theta_cap = math.pi * (1.0 - 1e-12)

    def form(contrast):
        return _homodyne_form(alpha, contrast)

    contrasts = [_contrast(spec) for spec in specs]
    grids = _mirrored_grids(form, contrasts, _swapped, n_thetas, xs[:, None], thetas[: n_thetas // 2 + 1])
    optima = []
    for contrast, vals in zip(contrasts, grids):
        i, k = np.unravel_index(_first_maximum(vals), vals.shape)
        best = (float(vals[i, k]), float(xs[i]), float(thetas[k]))
        score = form(contrast)

        def negated(x: float, theta: float) -> float:
            # clamped by comparisons, not min/max calls: this runs at every step
            x = lo if x < lo else hi if x > hi else x
            return -score(x, 0.0 if theta < 0.0 else theta_cap if theta > theta_cap else theta)

        (x, th), f, _ = _nelder_mead(negated, best[1:], 400)
        optima.append((min(max(x, lo), hi), min(max(th, 0.0), theta_cap)) if -f >= best[0] else best[1:])
    return optima


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
        dim = as_dim(dim)
        D = _guarded_displacements([_shift(self.beta_opt, self.detector)], dim)
        _check_report([self], D, _targets([self.spec], dim), dim)


def _check_report(reports, D: np.ndarray, targets, dim: TruncationDim) -> None:
    """``FidelityReport.verify`` of reports that share one detector, from
    the guarded stack of D at their ``_shift(beta_opt, detector)``
    (``_guarded_displacements``) and their target stacks.  Every assembled
    POVM fidelity must be real (``_povm_fidelities``), and then each POVM
    must pass the ``PovmPair.checked`` invariants (``_failures``) and match
    f_dp within ``REPORT_CONSISTENCY_TOL``: the first report that fails raises."""
    detector = reports[0].detector
    pi0 = _displaced_elements(D, targets, detector)
    pi1 = np.eye(dim.size) - pi0
    for report, failure, ref in zip(reports, _failures(pi0, pi1), _povm_fidelities(pi0, pi1, targets)):
        if failure is not None:
            raise failure
        if abs(ref - report.f_dp) > REPORT_CONSISTENCY_TOL:
            raise ArithmeticError(
                f"reported f_dp={report.f_dp!r} disagrees with the POVM value "
                f"{ref!r} at beta_opt={report.beta_opt!r}"
            )


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of superposition weight, mean photon number and phase."""

    c0sq_values: tuple
    alpha_sq_values: tuple
    phi_values: tuple

    def __post_init__(self) -> None:
        for name in ("c0sq_values", "alpha_sq_values", "phi_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must not be empty")
            if any(not math.isfinite(v) for v in vals):
                raise ValueError(f"{name} contains a non-finite value")
            if list(vals) != sorted(vals):
                raise ValueError(f"{name} must be sorted ascending")
        if self.c0sq_values[0] < 0.0 or self.c0sq_values[-1] > 1.0:
            raise ValueError("c0sq_values must lie in [0, 1]")
        if not self.alpha_sq_values[0] >= MIN_ALPHA**2:
            raise ValueError(f"alpha_sq_values must be at least MIN_ALPHA^2 = {MIN_ALPHA**2:g}")

    def __len__(self) -> int:
        return len(self.c0sq_values) * len(self.alpha_sq_values) * len(self.phi_values)

    def points(self):
        """Grid points in row-major (c0sq, alpha_sq, phi) order."""
        return itertools.product(self.c0sq_values, self.alpha_sq_values, self.phi_values)

    def specs(self) -> tuple:
        """The spec of every grid point, in ``points`` order."""
        return tuple(ScsMeasurementSpec.from_c0sq(math.sqrt(a2), c0sq, phi) for c0sq, a2, phi in self.points())


@dataclass(frozen=True)
class SearchPlan:
    """The specs of one search-and-score call at one cutoff for one detector,
    checked once: the constructor builds the (t0, t1) ``targets``, so each
    alpha's cat basis is checked at the cutoff before any search, and takes
    the guard radius ``r_max`` that bounds the displacement search.  The
    specs are held grouped by alpha, each group where its alpha first
    appears, the order they are searched and stacked in; ``order[j]`` is
    the index of ``specs[j]`` in the list given."""

    specs: tuple
    detector: DetectorModel
    dim: TruncationDim
    order: tuple = field(init=False, repr=False, compare=False)
    targets: tuple = field(init=False, repr=False, compare=False)
    r_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first: dict[float, int] = {}  # each alpha's group goes where the alpha first appears
        order = tuple(sorted(range(len(self.specs)), key=lambda i: first.setdefault(self.specs[i].alpha, len(first))))
        specs, dim = tuple(self.specs[i] for i in order), as_dim(self.dim)
        derived = dict(specs=specs, dim=dim, order=order, targets=_targets(specs, dim))
        derived["r_max"] = max_guarded_amplitude(dim)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def groups(self) -> list[list]:
        """The specs, one list per alpha, in order."""
        return [list(group) for _, group in itertools.groupby(self.specs, key=attrgetter("alpha"))]

    def stacks(self, snap=None):
        """Search every spec's displacement, one pass per alpha, ``snap``
        each beta if given, then yield ``(rows, betas, D, targets, f)`` per
        stack of up to ``_STACK`` specs: the slice of ``specs``, the guarded
        D at ``_shift(beta, detector)`` and each row's f_dp (``_click_score``)."""
        betas = [beta for group in self.groups() for beta in _search_displacements(group, self.detector, self.dim)]
        if snap is not None:
            betas = [snap(beta) for beta in betas]
        t0, t1 = self.targets
        for start in range(0, len(betas), _STACK):
            rows = slice(start, start + _STACK)
            D = _guarded_displacements([_shift(beta, self.detector) for beta in betas[rows]], self.dim)
            targets = t0[rows], t1[rows]
            yield rows, betas[rows], D, targets, _click_score(targets, D, self.detector)


def optimized_reports(plan: SearchPlan) -> list[FidelityReport]:
    """The reports of all three strategies at every spec of a plan, in the
    order given: ``plan.stacks`` with the homodyne search, one E per stack
    for f_hd, and ``_check_report`` on the D that scored f_dp.  The first
    failure raises."""
    homodynes = [optimum for group in plan.groups() for optimum in _search_homodynes(group)]
    reports = []
    for rows, betas, D, targets, f_dp in plan.stacks():
        x_th, lo_phase = np.array(homodynes[rows]).T
        f_hd = _homodyne_score(targets, quadrature_interval_operator(x_th, plan.dim), lo_phase)
        scored = [
            FidelityReport(float(dp), float(hd), pnrd_fidelity(spec), beta, x, phase, spec, plan.detector)
            for spec, beta, (x, phase), dp, hd in zip(plan.specs[rows], betas, homodynes[rows], f_dp, f_hd)
        ]
        _check_report(scored, D, targets, plan.dim)
        reports += scored
    return [report for _, report in sorted(zip(plan.order, reports), key=_value)]


def optimize(spec: ScsMeasurementSpec, detector: DetectorModel, dim) -> FidelityReport:
    """The optimized report of one spec: ``optimized_reports`` on a plan of
    one, so it is the report a sweep gives that point, or its failure."""
    (report,) = optimized_reports(SearchPlan((spec,), detector, dim))
    return report


def sweep(grid: SweepGrid, detector: DetectorModel = IDEAL_DETECTOR, dim=20) -> list[FidelityReport]:
    """One optimized FidelityReport per grid point, in grid order, from
    ``optimized_reports`` on a plan of every point.  The first point that
    fails raises its own exception, and the sweep returns nothing: a
    landscape with holes in it is not a result.
    """
    return optimized_reports(SearchPlan(grid.specs(), detector, dim))


__all__ = [
    "AMPLITUDE_CEILING",
    "AMPLITUDE_STEP",
    "PHASE_STEP",
    "REFINE_TOL",
    "THRESHOLD_RANGE",
    "THRESHOLD_STEP",
    "FidelityReport",
    "SearchPlan",
    "SweepGrid",
    "displaced_povm",
    "fidelity",
    "optimize",
    "optimized_reports",
    "pnrd_fidelity",
    "sweep",
]
