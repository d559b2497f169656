import cmath
import collections
import itertools
import linecache
import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from catproj import fidelity as fidelity_module
from catproj import fock
from catproj.cli import NMAX_CEILING, PRESETS, main
from catproj.fidelity import (
    AMPLITUDE_CEILING,
    AMPLITUDE_STEP,
    PHASE_STEP,
    REFINE_TOL,
    THRESHOLD_RANGE,
    THRESHOLD_STEP,
    FidelityReport,
    SearchPlan,
    SweepGrid,
    _click_form,
    _click_score,
    _conjugated,
    _contrast,
    _first_maximum,
    _homodyne_form,
    _homodyne_score,
    _nelder_mead,
    _grids,
    _mirrored_grids,
    _search_displacements,
    _search_homodynes,
    _check_report,
    _shift,
    _swapped,
    _targets,
    displaced_povm,
    fidelity,
    optimize,
    optimized_reports,
    pnrd_fidelity,
    sweep,
)
from catproj.fock import (
    MIN_ALPHA,
    ScsMeasurementSpec,
    TruncationDim,
    _displacement_matrix,
    displacement_operator,
    max_guarded_amplitude,
    scs_projectors,
)
from catproj.povm import (
    IDEAL_DETECTOR,
    DetectorModel,
    PovmPair,
    _counting_povm,
    quadrature_interval_operator,
)

DIM = TruncationDim(20)
LAB = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)

# optimal ideal-counter fidelity and displacement modulus on the
# c0^2 = 0.5 .. 1.0 (step 0.05) row at alpha = 0.5, phi = 0, from a dense
# grid refined independently of the production search settings
ROW_C0SQ = np.arange(0.5, 1.0001, 0.05)
ROW_F = [0.95932917, 0.97191487, 0.98207352, 0.98989621, 0.99545286,
         0.99880116, 0.99999554, 0.99909683, 0.99618297, 0.99136002, 1.0]
ROW_BETA = [0.771702, 0.734730, 0.695950, 0.654580, 0.609678, 0.560029,
            0.503942, 0.438796, 0.359809, 0.255079, 0.0]


def spec_of(c0sq, alpha=0.5, phi=0.0):
    return ScsMeasurementSpec.from_c0sq(alpha, c0sq, phi)


def click_score(spec, det, n_max):
    """The scalar closed form the displacement refinement calls."""
    return _click_form(spec.alpha, _contrast(spec), det, n_max)


def homodyne_score(spec):
    """The scalar closed form the homodyne refinement calls."""
    return _homodyne_form(spec.alpha, _contrast(spec))


def click_fock(spec, beta, det, dim):
    """The Fock kernel that scores f_dp, on a stack of one D built for this
    one point (no cutoff guard, so it also scores points beyond it)."""
    (f,) = _click_score(_targets([spec], dim), _displacement_matrix(_shift(beta, det), dim)[None], det)
    return float(f)


def homodyne_fock(spec, x_th, lo_phase, dim):
    """The Fock kernel that scores f_hd, on a stack of one E built for this
    one point."""
    E = quadrature_interval_operator(np.array([x_th]), np.inf, dim)
    (f,) = _homodyne_score(_targets([spec], dim), E, np.array([lo_phase]))
    return float(f)


def test_fidelity_trivial_pairs():
    spec = ScsMeasurementSpec(alpha=0.5, c0=1.0, c1=0.0)
    even = np.diag(np.arange(21) % 2 == 0).astype(complex)
    parity = PovmPair.checked(DIM, even, np.eye(21) - even)
    assert fidelity(parity, spec) == pytest.approx(1.0, abs=1e-10)

    half = 0.5 * np.eye(21, dtype=complex)
    split = PovmPair.checked(DIM, half, half)
    assert fidelity(split, spec_of(0.3)) == pytest.approx(0.5, abs=1e-12)


def test_pnrd_fidelity_branches():
    assert pnrd_fidelity(spec_of(0.5)) == pytest.approx(0.5, abs=1e-15)
    assert pnrd_fidelity(spec_of(1.0)) == 1.0
    assert pnrd_fidelity(spec_of(0.3)) == pytest.approx(0.7, abs=1e-15)


def test_parity_limit_matches_population_max():
    # with no displacement an ideal counter reads out parity, and the
    # fidelity collapses to max(c0^2, c1^2)
    for c0sq in np.linspace(0.0, 1.0, 21):
        spec = spec_of(c0sq)
        got = fidelity(displaced_povm(spec, 0.0, IDEAL_DETECTOR, DIM), spec)
        assert abs(got - max(c0sq, 1.0 - c0sq)) < 1e-9, c0sq


def test_optimizer_frozen_row():
    for c0sq, f_ref, b_ref in zip(ROW_C0SQ, ROW_F, ROW_BETA):
        report = optimize(spec_of(c0sq), IDEAL_DETECTOR, DIM)
        assert report.f_dp == pytest.approx(f_ref, abs=1e-7), c0sq
        assert abs(report.beta_opt) == pytest.approx(b_ref, abs=1e-4), c0sq


def test_optimizer_amplitude_decreases_with_weight():
    betas = [optimize(spec_of(c), IDEAL_DETECTOR, DIM).beta_opt for c in (0.5, 0.9, 1.0)]
    assert abs(betas[0]) > abs(betas[1]) > abs(betas[2])
    assert abs(betas[2]) < 1e-3


def test_optimizer_beats_coarse_samples():
    spec = spec_of(0.65)
    f = optimize(spec, IDEAL_DETECTOR, DIM).f_dp
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = rng.uniform(0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert f >= click_fock(spec, b, IDEAL_DETECTOR, DIM) - 1e-12


def test_optimizer_deterministic():
    a = optimize(spec_of(0.7), IDEAL_DETECTOR, DIM)
    b = optimize(spec_of(0.7), IDEAL_DETECTOR, DIM)
    assert a.beta_opt == b.beta_opt and a.f_dp == b.f_dp


def test_optimizer_mirror_below_half():
    # for c0^2 < 1/2 the roles of the two targets swap under parity, which
    # moves the optimal displacement to the negative real axis with the
    # same fidelity as the complementary weight
    report = optimize(spec_of(0.3), IDEAL_DETECTOR, DIM)
    mirror = optimize(spec_of(0.7), IDEAL_DETECTOR, DIM)
    assert report.beta_opt.real < -0.5 and abs(report.beta_opt.imag) < 1e-6
    assert report.f_dp == pytest.approx(mirror.f_dp, abs=1e-9)


def test_click_model_matrix_route_agreement():
    det = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
    spec = spec_of(0.75)
    for b in (0.0, 0.41, 0.3 - 0.55j):
        direct = click_fock(spec, b, det, DIM)
        assembled = fidelity(displaced_povm(spec, b, det, DIM), spec)
        assert direct == pytest.approx(assembled, abs=1e-12)


def test_closed_forms_match_the_fock_kernels():
    # the optimizers search with the untruncated coherent-state closed forms;
    # at a cutoff where truncation is negligible they are the Fock model
    dim = TruncationDim(40)
    rng = np.random.default_rng(8)
    worst = {"ideal": 0.0, "lab": 0.0, "homodyne": 0.0}
    for alpha_sq in (0.1, 0.25, 1.0, 1.6, 2.3):
        for c0sq in (0.2, 0.5, 0.75, 0.95):
            for phi in (0.0, 0.9, math.pi / 2):
                spec = spec_of(c0sq, math.sqrt(alpha_sq), phi)
                radii = np.concatenate([[0.0, 2.5], rng.uniform(0.0, 2.5, 3)])
                for b in radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, radii.size)):
                    for name, det in (("ideal", IDEAL_DETECTOR), ("lab", LAB)):
                        closed = click_score(spec, det, dim.n_max)(complex(b))
                        fock_value = click_fock(spec, b, det, dim)
                        worst[name] = max(worst[name], abs(closed - fock_value))
                for x in np.concatenate([[-6.0, 6.0], rng.uniform(-6.0, 6.0, 3)]):
                    th = rng.uniform(0.0, math.pi)
                    closed = homodyne_score(spec)(float(x), float(th))
                    fock_value = homodyne_fock(spec, x, th, dim)
                    worst["homodyne"] = max(worst["homodyne"], abs(closed - fock_value))
    assert max(worst.values()) <= 1e-12, worst


def test_closed_forms_score_whole_grids():
    # one array call scores a grid for a stack of specs at one alpha: each
    # slice is bit for bit the grid of that spec alone, and each entry equals
    # the scalar closed form that the refinement calls, a Python float in
    # math/cmath arithmetic
    rng = np.random.default_rng(12)
    for alpha, weights in ((0.8, ((0.7, 0.4), (0.5, 0.0), (1.0, 1.1))), (1.4, ((0.2, 2.0), (0.0, 0.3), (0.9, 3.0)))):
        contrasts = [_contrast(spec_of(c0sq, alpha, phi)) for c0sq, phi in weights]
        drawn = rng.uniform(0.0, 2.5, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
        betas = np.concatenate([[0.0, 0.3 + 0.4j, -0.7j, 1.1], drawn]).reshape(4, 5)
        xs = np.concatenate([[-1.0, 0.2, 3.0], rng.uniform(-6.0, 6.0, 5)])
        thetas = np.array([0.0, 1.0, 2.9])
        cases = [
            (partial(_click_form, alpha, detector=det, n_max=20), (betas,), [(complex(b),) for b in betas.ravel()])
            for det in (IDEAL_DETECTOR, LAB)
        ]
        thresholds = [(float(x), float(th)) for x in xs for th in thetas]
        cases.append((partial(_homodyne_form, alpha), (xs[:, None], thetas), thresholds))
        for form, grid_args, points in cases:
            stack = list(_grids(form, contrasts, *grid_args))
            assert len(stack) == 3
            for contrast, grid in zip(contrasts, stack):
                assert grid.shape == np.broadcast_shapes(*(np.shape(a) for a in grid_args))
                assert np.array_equal(grid, next(_grids(form, [contrast], *grid_args)))
                score = form(contrast)
                for args, v in zip(points, grid.ravel()):
                    point = score(*args)
                    assert type(point) is float and abs(v - point) <= 1e-15


def complex_ideal_form(alpha, contrast, n_max):
    """Oracle: the ideal-counter closed form in complex arithmetic, one
    expression for a Python complex (math/cmath) or for an array of b with
    (k, 1, 1) stacked contrasts (numpy), carrying c = conj(f_0) f_1
    (conj(gamma_0) gamma_1)^n / n! as one complex running product."""
    s00, s11, s01 = contrast
    scalar = not isinstance(s00, np.ndarray)
    exp, cexp = (math.exp, cmath.exp) if scalar else (np.exp, np.exp)

    def ideal(b):
        g0, g1 = alpha - b, -alpha - b
        q0 = g0.real * g0.real + g0.imag * g0.imag
        q1 = g1.real * g1.real + g1.imag * g1.imag
        r = g0.conjugate() * g1
        p0, p1 = exp(-q0), exp(-q1)
        c = cexp(-0.5 * (q0 + q1) + 2j * alpha * b.imag)
        total = 0.0
        for n in range(n_max + 1):
            if n:
                p0, p1, c = p0 * q0 / n, p1 * q1 / n, c * r / n
            d = s00 * p0 + s11 * p1 + (s01 * c).real
            total = total + d * (d > 0.0)
        return 0.5 * (1.0 + total)

    return ideal


@pytest.mark.parametrize("n_max", [1, 2, 20, 24, 40, NMAX_CEILING])
def test_ideal_point_form_is_bitwise_the_complex_form(n_max):
    # the refinement's scalar form carries the complex running product as a
    # real pair and stops once its bound shows every later d_n is negative;
    # every value is the complex-arithmetic full sum's to the last bit.  b = +-alpha
    # makes one q zero, b on the imaginary axis makes q_0 = q_1, and c0^2 in {0, 1}
    # and phi in {0, pi/2, pi} put the contrast on the edges of its range
    rng = np.random.default_rng(n_max)
    for _ in range(2000):
        alpha = math.sqrt(rng.uniform(0.05, 6.25))
        phi = float(rng.choice([0.0, math.pi / 2, math.pi, rng.uniform(0.0, 2.0 * math.pi)]))
        spec = spec_of(float(rng.choice([0.0, 1.0, rng.uniform()])), alpha, phi)
        x, y = rng.uniform(-3.5, 3.5, 2)
        b = complex(*[(float(rng.choice([alpha, -alpha])), 0.0), (x, 0.0), (0.0, y), (x, y)][rng.integers(4)])
        oracle = complex_ideal_form(alpha, _contrast(spec), n_max)
        assert click_score(spec, IDEAL_DETECTOR, n_max)(b) == oracle(b)


def test_the_fig5_refinements_sum_a_pinned_number_of_photon_number_terms(tmp_path):
    # the scalar form's stop rule pinned as work, not time: the d_n lines it
    # runs, counted from line events, over every evaluation in a `tomography
    # --preset fig5` run.  Summing every term to n_max = 24 runs 25 per evaluation
    code = _click_form(0.5, (0.0, 0.0, 0j), IDEAL_DETECTOR, 1).__code__
    term_lines = {
        line
        for *_, line in code.co_lines()
        if line and linecache.getline(code.co_filename, line).lstrip().startswith("d = ")
    }
    counts = collections.Counter()

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in term_lines:
            counts["terms"] += 1
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code is code:
            counts["evaluations"] += 1
            return on_line
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        assert main(["tomography", "--preset", "fig5", "--out", str(tmp_path / "fig5.csv")]) == 0
    finally:
        sys.settrace(previous)
    assert len(term_lines) == 2  # the n = 0 term and the loop's
    assert counts == {"evaluations": 2499, "terms": 19162}


@pytest.mark.parametrize("stack", [fidelity_module._STACK, 2])
def test_ideal_grid_matches_the_complex_form(monkeypatch, stack):
    # on the optimizer's polar grid, the in-place real buffers and one
    # contraction per spec pick the same first maximum as the
    # complex-arithmetic grid, mirror ties at phi = 0 included.  Each d_n may
    # round differently by about one ulp of its largest term, and the term
    # weights p_0, p_1 and |c| each sum to at most 1 over n, so an entry may
    # move by eps (|S_00| + |S_11| + |2 S_01|): about 6.4e-16 for
    # alpha^2 >= 1, 1.3e-15 at alpha^2 = 0.2 and 1.1e-14 at alpha^2 = 0.02,
    # where the cat normalization makes the contrast large
    monkeypatch.setattr(fidelity_module, "_STACK", stack)
    rng = np.random.default_rng(15)
    for n_max in (20, 24):
        r_max = min(AMPLITUDE_CEILING, max_guarded_amplitude(TruncationDim(n_max)))
        grid = np.arange(0.0, r_max + 1e-12, 0.02)[:, None] * np.exp(1j * np.arange(120) * (math.pi / 60.0))
        for alpha in np.sqrt([0.02, *rng.uniform(0.02, 2.5, 5)]):
            weights = [0.5, *rng.uniform(size=4)]
            phases = [0.0, 0.0, math.pi / 2, math.pi / 2, rng.uniform(0.0, 2.0 * math.pi)]
            contrasts = [_contrast(spec_of(c0sq, alpha, phi)) for c0sq, phi in zip(weights, phases)]
            grids = _grids(partial(_click_form, alpha, detector=IDEAL_DETECTOR, n_max=n_max), contrasts, grid)
            for contrast, vals in zip(contrasts, grids, strict=True):
                stacked = tuple(np.reshape(term, (1, 1, 1)) for term in contrast)
                (oracle,) = complex_ideal_form(alpha, stacked, n_max)(grid)
                scale = sum(abs(term) for term in contrast)
                assert np.max(np.abs(vals - oracle)) <= np.finfo(float).eps * scale
                assert _first_maximum(vals) == _first_maximum(oracle)


def search_grids(n_max):
    """(form, mirror, n, half, full) for the polar grid of each detector and
    for the homodyne grid, as the searches build them: the grid arguments
    of the scored half and of the whole grid."""
    radii = np.arange(0.0, max_guarded_amplitude(TruncationDim(n_max)) + 1e-12, AMPLITUDE_STEP)
    polar = radii[:, None] * np.exp(1j * np.arange(120) * PHASE_STEP)
    lo, hi = THRESHOLD_RANGE
    xs = np.arange(lo, hi + 1e-9, THRESHOLD_STEP)[:, None]
    thetas = np.arange(60) * (math.pi / 60.0)
    return [
        *(
            (partial(_click_form, detector=det, n_max=n_max), _conjugated, 120, (polar[:, :61],), (polar,))
            for det in (IDEAL_DETECTOR, LAB)
        ),
        (_homodyne_form, _swapped, 60, (xs, thetas[:31]), (xs, thetas)),
    ]


@pytest.mark.parametrize("n_max", [20, 24])
def test_mirrored_grids_are_the_directly_scored_grids(n_max):
    # each search scores half its grid, for the spec and for its partner
    # contrast, and mirrors the rest.  phi_{120-j} is not bitwise -phi_j, so
    # a mirrored entry is scored a few ulps of phase away from the direct
    # one and rounds on its own: it may move by a few ulps of the terms it
    # sums (up to 2.25 eps (|S_00| + |S_11| + |2 S_01|) over 5,400 random
    # groups, ideal counter), and the first maximum stays put
    rng = np.random.default_rng(18 + n_max)
    eps = np.finfo(float).eps
    for alpha in np.sqrt([0.02, *rng.uniform(0.02, 2.5, 6)]):
        weights = [0.5, *rng.uniform(size=5)]
        phases = [0.0, 0.0, math.pi / 2, math.pi / 2, *rng.uniform(0.0, 2.0 * math.pi, 2)]
        contrasts = [_contrast(spec_of(c0sq, alpha, phi)) for c0sq, phi in zip(weights, phases)]
        for form, mirror, n, half, full in search_grids(n_max):
            form = partial(form, alpha)
            mirrored = _mirrored_grids(form, contrasts, mirror, n, *half)
            for phi, contrast, vals, direct in zip(phases, contrasts, mirrored, _grids(form, contrasts, *full)):
                assert vals.shape == direct.shape
                assert np.max(np.abs(vals - direct)) <= 4.0 * eps * sum(abs(term) for term in contrast)
                assert _first_maximum(vals) == _first_maximum(direct)
                if phi == 0.0 and mirror is _conjugated:
                    # beta and conj(beta) tie exactly; the tie goes to the upper half plane
                    assert np.array_equal(vals[:, 61:], vals[:, 59:0:-1])
                    assert np.unravel_index(_first_maximum(vals), vals.shape)[1] <= 60


def test_each_search_scores_half_its_grid(monkeypatch):
    # per alpha group, one homodyne grid call on 121 thresholds x 31 phases
    # in [0, pi/2] and one polar grid call on radii x 61 phases in [0, pi],
    # each for every spec and its partner contrast: half the points of the
    # 121 x 60 and radii x 120 grids the searches pick their maxima from.
    # The homodyne searches run first, then the plan's displacement searches
    calls = []

    def spied(form, contrasts, *grid):
        calls.append((len(contrasts), np.broadcast_shapes(*(np.shape(a) for a in grid))))
        return _grids(form, contrasts, *grid)

    monkeypatch.setattr(fidelity_module, "_grids", spied)
    radii = len(np.arange(0.0, max_guarded_amplitude(DIM) + 1e-12, AMPLITUDE_STEP))
    for det in (IDEAL_DETECTOR, LAB):
        calls.clear()
        assert len(sweep(SweepGrid((0.3, 0.6, 0.85), (0.25, 1.6), (0.0,)), det, DIM)) == 6
        assert calls == [(6, (121, 31))] * 2 + [(6, (radii, 61))] * 2


def same_as_scipy(fun, x0, maxiter):
    """Run the in-repo Nelder-Mead and scipy's on fun(x, y); both must visit
    the same vertices to the last bit.  Returns the evaluation count."""
    (x, y), f, nfev = _nelder_mead(fun, x0, maxiter)
    res = minimize(
        lambda p: fun(p[0], p[1]),
        np.array(x0, dtype=float),
        method="Nelder-Mead",
        options={"xatol": REFINE_TOL, "fatol": REFINE_TOL, "maxiter": maxiter},
    )
    assert (x, y) == (res.x[0], res.x[1]) and f == res.fun and nfev == res.nfev, (x0, maxiter)
    return nfev


def test_nelder_mead_matches_scipy():
    # the objectives the optimizers refine, from grid starts: Re beta =
    # r cos(pi/2) is about 1e-17, the threshold grid's "0" is -2.1e-14, and
    # phase 0 gives a coordinate that is exactly 0
    r_max = AMPLITUDE_CEILING
    lo, hi = THRESHOLD_RANGE
    theta_cap = math.pi * (1.0 - 1e-12)
    thresholds = np.arange(lo, hi + 1e-9, 0.1)
    for spec in (spec_of(0.8, 0.7, 0.3), spec_of(0.55, 1.2, 0.0), spec_of(0.5)):
        for det in (IDEAL_DETECTOR, LAB):
            score = click_score(spec, det, DIM.n_max)

            def negated(x, y):
                b = complex(x, y)
                excess = abs(b) - r_max
                return 1.0 + excess if excess > 0.0 else -score(b)

            for r, phase in ((0.76, 0.0), (0.4, math.pi / 2), (1.1, 2.2), (2.48, 0.3)):
                same_as_scipy(negated, (r * math.cos(phase), r * math.sin(phase)), 600)
            same_as_scipy(negated, (0.0, 0.0), 600)
            same_as_scipy(negated, (1e-16, 0.5), 600)
            converged = same_as_scipy(negated, (0.3, 0.2), 600)
            assert same_as_scipy(negated, (0.3, 0.2), 6) < converged  # stopped by maxiter

        hd = homodyne_score(spec)

        def negated_hd(x, theta):
            return -hd(min(max(x, lo), hi), min(max(theta, 0.0), theta_cap))

        for i, k in ((60, 0), (55, 13), (70, 59), (120, 30)):
            same_as_scipy(negated_hd, (float(thresholds[i]), k * math.pi / 60.0), 400)


def test_nelder_mead_shrinks_like_scipy():
    # from (1, 1) on sqrt|x - 1| + sqrt|y - 1| the reflected and the inside
    # contracted points are both worse than the worst vertex, so the first
    # iteration shrinks the simplex toward the best vertex
    seen = []

    def cusp(x, y):
        seen.append((float(x), float(y)))
        return math.sqrt(abs(x - 1.0)) + math.sqrt(abs(y - 1.0))

    same_as_scipy(cusp, (1.0, 1.0), 400)
    half = 1.0 + 0.5 * (1.05 - 1.0)
    assert seen[5:7] == [(half, 1.0), (1.0, half)]


def test_mirror_ties_go_to_the_first_grid_maximum():
    # beta and -beta tie at c0^2 = 1/2, phi = 0, and beta and conj(beta) tie
    # at phi = 0; within a few ulps the grid takes the first maximum in
    # radius-major, phase-ascending order, not the last bits of the values
    vals = np.array([[0.5, 0.9, np.nextafter(0.96, 0.0)], [0.96, 0.7, 0.96]])
    assert _first_maximum(vals) == 2
    vals[0, 2] = 0.96 - 1e-12
    assert _first_maximum(vals) == 3
    assert optimize(spec_of(0.5), IDEAL_DETECTOR, DIM).beta_opt.real > 0.5
    fig1d = PRESETS["fig1d"]
    c0sq = next(c for c in fig1d["c0sq_values"] if abs(c - 0.8) < 1e-9)
    alpha_sq = next(a for a in fig1d["alpha_sq_values"] if abs(a - 1.6) < 1e-9)
    assert optimize(spec_of(c0sq, math.sqrt(alpha_sq)), IDEAL_DETECTOR, DIM).beta_opt.imag > 0.1


def counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_optimizers_build_one_fock_operator_each(monkeypatch):
    # the searches run on closed forms; only the final scores build an N x N
    # matrix each, so no matrix build may creep back into the objective
    max_guarded_amplitude(DIM)  # the cached guard scan is set-up, not search
    counts = {"_displacement_matrix": 0, "quadrature_interval_operator": 0}
    counting(monkeypatch, fock, "_displacement_matrix", counts)
    counting(monkeypatch, fidelity_module, "quadrature_interval_operator", counts)
    spec = spec_of(0.8, 0.7, 0.3)
    for det in (IDEAL_DETECTOR, LAB):
        optimize(spec, det, DIM)
        assert counts == {"_displacement_matrix": 1, "quadrature_interval_operator": 1}
        counts.update(dict.fromkeys(counts, 0))


def test_search_returns_the_optimizers_displacement_without_a_fock_score(monkeypatch):
    # the search is the optimizer without its score: the same beta, bit for
    # bit, and no N x N matrix, so callers that drop the score skip its cost
    max_guarded_amplitude(DIM)
    cases = {
        alpha: [spec_of(c0sq, alpha, phi) for c0sq, phi in ((0.5, 0.0), (0.8, 0.3), (0.95, 2.0))]
        for alpha in (0.3, 0.499, 0.9, 1.3)
    }
    for det in (IDEAL_DETECTOR, LAB):
        for specs in cases.values():
            counts = {"_displacement_matrix": 0}
            with monkeypatch.context() as patch:
                counting(patch, fock, "_displacement_matrix", counts)
                betas = _search_displacements(specs, det, DIM)
            assert counts == {"_displacement_matrix": 0}
            assert betas == [optimize(spec, det, DIM).beta_opt for spec in specs]
    assert _search_displacements([], IDEAL_DETECTOR, DIM) == []


def test_homodyne_search_returns_the_optimizers_point_without_a_fock_score(monkeypatch):
    for alpha in (0.3, 0.9, 1.3):
        specs = [spec_of(c0sq, alpha, phi) for c0sq, phi in ((0.5, 0.0), (0.8, 0.3), (0.95, 2.0))]
        counts = {"quadrature_interval_operator": 0}
        with monkeypatch.context() as patch:
            counting(patch, fidelity_module, "quadrature_interval_operator", counts)
            optima = _search_homodynes(specs)
        assert counts == {"quadrature_interval_operator": 0}
        reports = [optimize(spec, IDEAL_DETECTOR, DIM) for spec in specs]
        assert optima == [(report.x_th_opt, report.lo_phase_opt) for report in reports]
    assert _search_homodynes([]) == []
    with pytest.raises(ValueError, match="share one alpha"):
        _search_homodynes([spec_of(0.5, 0.3), spec_of(0.5, 0.4)])


def test_optimizers_report_the_fock_value_at_their_point():
    for spec in (spec_of(0.8, 0.7, 0.3), spec_of(0.55, 1.2, 0.0)):
        for det in (IDEAL_DETECTOR, LAB):
            report = optimize(spec, det, DIM)
            assert report.f_dp == click_fock(spec, report.beta_opt, det, DIM)
            assert report.f_hd == homodyne_fock(spec, report.x_th_opt, report.lo_phase_opt, DIM)


def test_click_model_never_beats_ideal_counter():
    det = DetectorModel(eta=0.689)
    for c0sq in (0.5, 0.75, 1.0):
        spec = spec_of(c0sq)
        f_real = optimize(spec, det, DIM).f_dp
        f_ideal = optimize(spec, IDEAL_DETECTOR, DIM).f_dp
        assert f_real <= f_ideal + 1e-12


def test_displaced_povm_route_selection():
    spec = spec_of(0.6)
    lossy = DetectorModel(eta=0.9)
    ideal_pi0 = displaced_povm(spec, 0.2, IDEAL_DETECTOR, DIM).pi0.entries
    lossy_pi0 = displaced_povm(spec, 0.2, lossy, DIM).pi0.entries
    D = displacement_operator(0.2, DIM).entries
    assert np.array_equal(ideal_pi0, _counting_povm(D, DIM, [t.amps for t in scs_projectors(spec, DIM)]).pi0.entries)
    assert np.array_equal(lossy_pi0, _counting_povm(D, DIM, eta=0.9).pi0.entries)


def test_homodyne_optimum_half_weight():
    report = optimize(spec_of(0.5), IDEAL_DETECTOR, DIM)
    assert report.f_hd == pytest.approx(0.929332, abs=1e-5)
    assert abs(report.x_th_opt) < 1e-3 and abs(report.lo_phase_opt) < 1e-3


def test_homodyne_small_signal_limit():
    # as alpha -> 0 the targets degenerate to (|0> +- |1>)/sqrt(2) and the
    # best threshold detector reaches 1/2 + 1/sqrt(2*pi), well above the
    # random-guess floor
    f = optimize(spec_of(0.5, alpha=1e-3), IDEAL_DETECTOR, DIM).f_hd
    assert f == pytest.approx(0.5 + 1.0 / math.sqrt(2.0 * math.pi), abs=1e-4)


def test_homodyne_mirrored_weights():
    a = optimize(spec_of(0.3), IDEAL_DETECTOR, DIM)
    b = optimize(spec_of(0.7), IDEAL_DETECTOR, DIM)
    assert a.f_hd == pytest.approx(b.f_hd, abs=1e-9)
    assert a.x_th_opt == pytest.approx(-b.x_th_opt, abs=1e-5)
    assert 0.5 <= a.f_hd <= 1.0 + 1e-12


def test_homodyne_fixed_point_evaluation():
    # threshold far to the left accepts everything for outcome 0
    f = homodyne_fock(spec_of(0.8), -20.0, 0.0, DIM)
    assert f == pytest.approx(0.5, abs=1e-9)


def test_phase_reparameterization_invariance():
    b = 0.3 + 0.1j
    f1 = click_fock(spec_of(0.7, phi=0.4), b, IDEAL_DETECTOR, DIM)
    f2 = click_fock(spec_of(0.7, phi=0.4 + 2 * math.pi), b, IDEAL_DETECTOR, DIM)
    assert abs(f1 - f2) < 1e-10

    # with c1 = 0 the relative phase multiplies nothing
    f3 = click_fock(spec_of(1.0, phi=0.0), b, IDEAL_DETECTOR, DIM)
    f4 = click_fock(spec_of(1.0, phi=1.1), b, IDEAL_DETECTOR, DIM)
    assert abs(f3 - f4) < 1e-10

    # conjugating the phase and the displacement together changes nothing
    f5 = click_fock(spec_of(0.7, phi=-0.4), b.conjugate(), IDEAL_DETECTOR, DIM)
    assert abs(f1 - f5) < 1e-10


def test_report_validation():
    spec = spec_of(0.75)
    opt = optimize(spec, IDEAL_DETECTOR, DIM)
    beta, f_dp, x, th, f_hd = opt.beta_opt, opt.f_dp, opt.x_th_opt, opt.lo_phase_opt, opt.f_hd
    rep = FidelityReport(f_dp, f_hd, pnrd_fidelity(spec), beta, x, th, spec, IDEAL_DETECTOR)
    rep.verify(DIM)

    bad = FidelityReport(f_dp - 1e-4, f_hd, 0.75, beta, x, th, spec, IDEAL_DETECTOR)
    with pytest.raises(ArithmeticError):
        bad.verify(DIM)
    with pytest.raises(ValueError):
        FidelityReport(1.2, f_hd, 0.75, beta, x, th, spec, IDEAL_DETECTOR)
    # a displacement beyond the cutoff guard fails the check, whatever it scores
    for det in (IDEAL_DETECTOR, LAB):
        far = FidelityReport(click_fock(spec, 1.15, det, DIM), f_hd, 0.75, 1.15, x, th, spec, det)
        with pytest.raises(fock.CutoffTooSmallError, match="unitarity defect"):
            far.verify(DIM)


def test_sweep_grid_validation():
    SweepGrid((0.5, 0.75), (0.25,), (0.0,))
    with pytest.raises(ValueError):
        SweepGrid((0.75, 0.5), (0.25,), (0.0,))  # unsorted
    with pytest.raises(ValueError):
        SweepGrid((0.5, 1.2), (0.25,), (0.0,))  # weight out of range
    with pytest.raises(ValueError):
        SweepGrid((0.5,), (), (0.0,))  # empty axis
    with pytest.raises(ValueError):
        SweepGrid((0.5,), (0.0,), (0.0,))  # alpha^2 must be positive
    SweepGrid((0.5,), (MIN_ALPHA**2,), (0.0,))
    for tiny in (1e-300, 0.5 * MIN_ALPHA**2):  # below the closed forms' floor
        with pytest.raises(ValueError, match="MIN_ALPHA"):
            SweepGrid((0.5,), (tiny,), (0.0,))


def test_sweep_batched_matches_per_amplitude():
    # one report per grid point, in row-major (c0sq, alpha_sq, phi) order
    grid = SweepGrid((0.5, 0.8), (0.25,), (0.0, math.pi / 2))
    reports = sweep(grid, IDEAL_DETECTOR, DIM)
    assert len(reports) == len(grid) == 4
    # grid-index ordering: first axis is the weight
    assert reports[0].spec.c0**2 == pytest.approx(0.5)
    assert reports[-1].spec.c0**2 == pytest.approx(0.8)
    assert reports[0].spec.phi == 0.0 and reports[1].spec.phi == pytest.approx(math.pi / 2)


def test_sweep_batches_each_alpha_as_its_points_alone(monkeypatch):
    # points that share alpha^2 are optimized in one pass, a repeated alpha^2
    # in the same one, in stacks of at most _STACK specs per grid call;
    # every report equals the point optimized on its own
    grid = SweepGrid((0.3, 0.85), (0.25, 0.9, 0.9, 1.6), (0.0, 1.2))
    for det, stack in ((IDEAL_DETECTOR, fidelity_module._STACK), (LAB, 3)):
        monkeypatch.setattr(fidelity_module, "_STACK", stack)
        reports = sweep(grid, det, DIM)
        assert len(reports) == len(grid) == 16
        for report, (c0sq, alpha_sq, phi) in zip(reports, grid.points()):
            spec = ScsMeasurementSpec.from_c0sq(math.sqrt(alpha_sq), c0sq, phi)
            alone = optimize(spec, det, DIM)
            for name in FidelityReport.__dataclass_fields__:
                assert getattr(report, name) == getattr(alone, name), name


def test_group_reports_are_the_public_per_point_values():
    # every field of a report scored from the group's D and E stacks equals
    # ``optimize`` on that spec alone and the Fock kernels on one-point D and
    # E builds, exactly, and each report verifies
    specs = [spec_of(c0sq, 0.9, phi) for c0sq, phi in ((0.0, 0.0), (0.3, 1.2), (0.5, 0.0), (0.85, 2.5), (1.0, 0.0))]
    for det in (IDEAL_DETECTOR, LAB):
        reports = optimized_reports(SearchPlan(specs, det, DIM))
        for spec, report in zip(specs, reports):
            alone = optimize(spec, det, DIM)
            for name in FidelityReport.__dataclass_fields__:
                assert getattr(report, name) == getattr(alone, name), name
            assert report.spec == spec and report.detector == det
            assert report.f_dp == click_fock(spec, report.beta_opt, det, DIM)
            assert report.f_hd == homodyne_fock(spec, report.x_th_opt, report.lo_phase_opt, DIM)
            assert report.f_pn == pnrd_fidelity(spec)
            report.verify(DIM)


def test_stack_chunks_may_split_alpha_groups(monkeypatch):
    # at two points per stack, the six points of three alpha^2 groups are
    # scored in three stacks that cut across the groups; each report still
    # equals the point optimized on its own
    monkeypatch.setattr(fidelity_module, "_STACK", 2)
    max_guarded_amplitude(DIM)  # the cached guard scan is set-up, not search
    counts = {"_displacement_matrix": 0, "quadrature_interval_operator": 0}
    counting(monkeypatch, fock, "_displacement_matrix", counts)
    counting(monkeypatch, fidelity_module, "quadrature_interval_operator", counts)
    grid = SweepGrid((0.2, 0.65), (0.3, 1.1, 1.9), (0.7,))
    for det in (IDEAL_DETECTOR, LAB):
        reports = sweep(grid, det, DIM)
        for report, (c0sq, alpha_sq, phi) in zip(reports, grid.points(), strict=True):
            alone = optimize(ScsMeasurementSpec.from_c0sq(math.sqrt(alpha_sq), c0sq, phi), det, DIM)
            for name in FidelityReport.__dataclass_fields__:
                assert getattr(report, name) == getattr(alone, name), name
    assert counts == {"_displacement_matrix": 2 * 3 + 12, "quadrature_interval_operator": 2 * 3 + 12}


def check_outcome(reports, D, targets):
    """None if ``_check_report`` passes on the stack, else the type and
    message of what it raises."""
    try:
        _check_report(reports, D, targets, DIM)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return None


_ROWS = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),  # c0^2
        st.floats(0.05, 2.3),  # alpha^2
        st.floats(0.0, 2.0 * math.pi),  # phi
        # beta inside the guard, which the stack builder applies to every row
        st.complex_numbers(max_magnitude=max_guarded_amplitude(DIM)),
        st.floats(-6.0, 6.0),  # x_th
        st.floats(0.0, math.pi),  # lo_phase
        st.sampled_from([0.0, 0.0, 1e-9]),  # an f_dp offset the check must catch
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS, lab=st.booleans())
def test_a_row_scores_the_same_in_any_stack(rows, lab):
    # f_dp, f_hd and the check of each row of a stack are those of the row
    # scored alone, on its own one-point D and E, bit for bit; the stack's
    # check raises what its first failing row raises alone
    det = LAB if lab else IDEAL_DETECTOR
    specs = [spec_of(c0sq, math.sqrt(alpha_sq), phi) for c0sq, alpha_sq, phi, *_ in rows]
    betas = [beta for *_, beta, _, _, _ in rows]
    x_th = np.array([row[4] for row in rows])
    lo_phase = np.array([row[5] for row in rows])
    targets = _targets(specs, DIM)
    D = _displacement_matrix(np.array([_shift(beta, det) for beta in betas]), DIM)
    f_dp = _click_score(targets, D, det)
    f_hd = _homodyne_score(targets, quadrature_interval_operator(x_th, np.inf, DIM), lo_phase)
    reports, alone = [], []
    for i, (spec, beta, row) in enumerate(zip(specs, betas, rows)):
        one = _targets([spec], DIM)
        D_one = _displacement_matrix(_shift(beta, det), DIM)[None]
        E_one = quadrature_interval_operator(x_th[i : i + 1], np.inf, DIM)
        assert _click_score(one, D_one, det)[0] == f_dp[i]
        assert _homodyne_score(one, E_one, lo_phase[i : i + 1])[0] == f_hd[i]
        offset = row[6] if f_dp[i] < 0.5 else -row[6]
        report = FidelityReport(
            float(f_dp[i]) + offset, float(f_hd[i]), pnrd_fidelity(spec), beta, row[4], row[5], spec, det
        )
        reports.append(report)
        alone.append(check_outcome([report], D_one, one))
    assert check_outcome(reports, D, targets) == next((o for o in alone if o is not None), None)


def test_sweep_raises_the_first_point_failure(monkeypatch):
    # one failed point fails the sweep with its own exception and no warning:
    # alpha^2 = 6.76 exceeds what a 10-level truncation can hold
    grid = SweepGrid((0.5, 0.75), (0.25, 6.76), (0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fock.CutoffTooSmallError):
            sweep(grid, IDEAL_DETECTOR, TruncationDim(10))

    # a failed check raises from the call's stacked check, which runs once
    # every alpha^2 pass has searched its points
    counts = {"_search_displacements": 0}
    counting(monkeypatch, fidelity_module, "_search_displacements", counts)
    check = fidelity_module._check_report

    def picky(reports, *args):
        check(reports, *args)
        for report in reports:
            if (round(report.spec.c0**2, 9), round(report.spec.alpha**2, 9)) == (0.75, 1.0):
                raise ArithmeticError("injected")

    monkeypatch.setattr(fidelity_module, "_check_report", picky)
    grid = SweepGrid((0.5, 0.75), (0.25, 1.0, 1.6), (0.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="^injected$"):
            sweep(grid, IDEAL_DETECTOR, DIM)
    assert counts == {"_search_displacements": 3}


def test_sweep_searches_each_alpha_once_and_builds_each_stack_once(monkeypatch):
    # the search runs once per alpha^2 group, and the call's D and E stacks
    # are built once, shared by every point's score and the stacked check
    max_guarded_amplitude(DIM)  # the cached guard scan is set-up, not search
    counts = {"_search_displacements": 0, "_displacement_matrix": 0, "quadrature_interval_operator": 0}
    for name in ("_search_displacements", "quadrature_interval_operator"):
        counting(monkeypatch, fidelity_module, name, counts)
    counting(monkeypatch, fock, "_displacement_matrix", counts)
    grid = SweepGrid((0.5, 0.75), (0.25, 1.0, 1.6), (0.0,))
    reports = sweep(grid, IDEAL_DETECTOR, DIM)
    assert counts == {"_search_displacements": 3, "_displacement_matrix": 1, "quadrature_interval_operator": 1}
    assert [(round(r.spec.c0**2, 9), round(r.spec.alpha**2, 9)) for r in reports] == [
        (c0sq, alpha_sq) for c0sq, alpha_sq, _ in grid.points()
    ]



# Known optimizer defects, each pinned as a strict xfail that the ROADMAP item
# mending it flips.  Each asserts, on the closed form the searches refine, that
# no point near the reported optimum scores more than 1e-9 above it.


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 2: the simplex never moves a start threshold of 0"
)
def test_the_homodyne_refinement_leaves_no_gain_near_its_optimum():
    # the grid's best threshold is 0, so the start simplex keeps x_th at
    # about -1.7e-14; (0.0473, 1.68874) scores 2.24e-3 higher
    spec = spec_of(0.4092, math.sqrt(1.7577), 1.6906)
    report = optimize(spec, LAB, DIM)
    score = homodyne_score(spec)
    scan = itertools.product(np.linspace(-0.2, 0.2, 41), np.linspace(-0.05, 0.05, 21))
    near = [(0.0473, 1.68874)] + [(float(x), report.lo_phase_opt + float(dt)) for x, dt in scan]
    gain = max(score(x, theta) for x, theta in near) - score(report.x_th_opt, report.lo_phase_opt)
    assert gain <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 2: the simplex never moves a start Re(beta) of 0"
)
def test_the_displacement_refinement_leaves_no_gain_near_its_optimum():
    # the refinement reports beta = 3.4e-18 + 0.0664i; a scan of Re(beta)
    # at the same Im(beta) gains 3.7e-6
    spec = spec_of(0.9505, math.sqrt(2.187), 1.3299)
    beta = optimize(spec, IDEAL_DETECTOR, DIM).beta_opt
    score = click_score(spec, IDEAL_DETECTOR, DIM.n_max)
    gain = max(score(complex(float(x), beta.imag)) for x in np.linspace(-0.05, 0.05, 101)) - score(beta)
    assert gain <= 1e-9


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: the homodyne search covers LO phases in [0, pi) only"
)
@pytest.mark.parametrize("phi", [0.4, 1.3, 2.5])
def test_the_homodyne_optimum_at_phi_is_the_mirror_of_the_one_at_minus_phi(phi):
    # phi -> 2 pi - phi conjugates the targets, so (x, theta) serves the
    # mirrored spec at (x, 2 pi - theta); f_hd differs by 0.017 to 0.195
    reports = [optimize(spec_of(0.7, math.sqrt(0.5), p), IDEAL_DETECTOR, DIM) for p in (phi, 2.0 * math.pi - phi)]
    for report, other in (reports, reports[::-1]):
        score = homodyne_score(report.spec)
        mirrored = score(other.x_th_opt, 2.0 * math.pi - other.lo_phase_opt)
        assert mirrored - score(report.x_th_opt, report.lo_phase_opt) <= 1e-9
