import math
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from catproj import fidelity as fidelity_module
from catproj import fock
from catproj.cli import PRESETS
from catproj.fidelity import (
    AMPLITUDE_CEILING,
    REFINE_TOL,
    THRESHOLD_RANGE,
    FidelityReport,
    SweepGrid,
    _click_form,
    _contrast,
    _first_maximum,
    _homodyne_form,
    _nelder_mead,
    _grids,
    _optimized_reports,
    _search_displacements,
    _search_homodynes,
    displaced_click_fidelity,
    displaced_povm,
    fidelity,
    homodyne_fidelity,
    optimize_displacement,
    optimize_homodyne,
    pnrd_fidelity,
    quantize_to_schedule,
    sweep,
)
from catproj.fock import ScsMeasurementSpec, TruncationDim, _displacement_matrix, max_guarded_amplitude
from catproj.povm import IDEAL_DETECTOR, DetectorModel, PovmPair, dp_povm, onoff_povm, parity_povm

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


def test_fidelity_trivial_pairs():
    spec = ScsMeasurementSpec(alpha=0.5, c0=1.0, c1=0.0)
    assert fidelity(parity_povm(DIM), spec) == pytest.approx(1.0, abs=1e-10)

    half = 0.5 * np.eye(21, dtype=complex)
    split = PovmPair.checked(DIM, half, half, "reconstructed")
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
        got = fidelity(dp_povm(spec, 0.0, DIM), spec)
        assert abs(got - max(c0sq, 1.0 - c0sq)) < 1e-9, c0sq


def test_optimizer_frozen_row():
    for c0sq, f_ref, b_ref in zip(ROW_C0SQ, ROW_F, ROW_BETA):
        beta, f = optimize_displacement(spec_of(c0sq), IDEAL_DETECTOR, DIM)
        assert f == pytest.approx(f_ref, abs=1e-7), c0sq
        assert abs(beta) == pytest.approx(b_ref, abs=1e-4), c0sq


def test_optimizer_amplitude_decreases_with_weight():
    betas = [optimize_displacement(spec_of(c), IDEAL_DETECTOR, DIM)[0] for c in (0.5, 0.9, 1.0)]
    assert abs(betas[0]) > abs(betas[1]) > abs(betas[2])
    assert abs(betas[2]) < 1e-3


def test_optimizer_beats_coarse_samples():
    spec = spec_of(0.65)
    beta, f = optimize_displacement(spec, IDEAL_DETECTOR, DIM)
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = rng.uniform(0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert f >= displaced_click_fidelity(spec, b, IDEAL_DETECTOR, DIM) - 1e-12


def test_optimizer_deterministic():
    a = optimize_displacement(spec_of(0.7), IDEAL_DETECTOR, DIM)
    b = optimize_displacement(spec_of(0.7), IDEAL_DETECTOR, DIM)
    assert a[0] == b[0] and a[1] == b[1]


def test_optimizer_mirror_below_half():
    # for c0^2 < 1/2 the roles of the two targets swap under parity, which
    # moves the optimal displacement to the negative real axis with the
    # same fidelity as the complementary weight
    beta, f = optimize_displacement(spec_of(0.3), IDEAL_DETECTOR, DIM)
    _, f_mirror = optimize_displacement(spec_of(0.7), IDEAL_DETECTOR, DIM)
    assert beta.real < -0.5 and abs(beta.imag) < 1e-6
    assert f == pytest.approx(f_mirror, abs=1e-9)


def test_click_model_matrix_route_agreement():
    det = DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
    spec = spec_of(0.75)
    for b in (0.0, 0.41, 0.3 - 0.55j):
        direct = displaced_click_fidelity(spec, b, det, DIM)
        assembled = fidelity(onoff_povm(b, det, DIM), spec)
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
                        fock_value = displaced_click_fidelity(spec, b, det, dim)
                        worst[name] = max(worst[name], abs(closed - fock_value))
                for x in np.concatenate([[-6.0, 6.0], rng.uniform(-6.0, 6.0, 3)]):
                    th = rng.uniform(0.0, math.pi)
                    closed = homodyne_score(spec)(float(x), float(th))
                    fock_value = homodyne_fidelity(spec, x, th, dim)
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
    beta, _ = optimize_displacement(spec_of(0.5), IDEAL_DETECTOR, DIM)
    assert beta.real > 0.5
    fig1d = PRESETS["fig1d"]
    c0sq = next(c for c in fig1d["c0sq_values"] if abs(c - 0.8) < 1e-9)
    alpha_sq = next(a for a in fig1d["alpha_sq_values"] if abs(a - 1.6) < 1e-9)
    beta, _ = optimize_displacement(spec_of(c0sq, math.sqrt(alpha_sq)), IDEAL_DETECTOR, DIM)
    assert beta.imag > 0.1


def counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_optimizers_build_one_fock_operator_each(monkeypatch):
    # the search runs on closed forms; only the final score builds an N x N
    # matrix, so no matrix build may creep back into the objective
    max_guarded_amplitude(DIM)  # the cached guard scan is set-up, not search
    counts = {"_displacement_matrix": 0, "quadrature_interval_operator": 0}
    counting(monkeypatch, fock, "_displacement_matrix", counts)
    counting(monkeypatch, fidelity_module, "_displacement_matrix", counts)
    counting(monkeypatch, fidelity_module, "quadrature_interval_operator", counts)
    spec = spec_of(0.8, 0.7, 0.3)
    for det in (IDEAL_DETECTOR, LAB):
        optimize_displacement(spec, det, DIM)
        assert counts == {"_displacement_matrix": 1, "quadrature_interval_operator": 0}
        counts["_displacement_matrix"] = 0
    optimize_homodyne(spec, DIM)
    assert counts == {"_displacement_matrix": 0, "quadrature_interval_operator": 1}


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
                counting(patch, fidelity_module, "_displacement_matrix", counts)
                betas = _search_displacements(specs, det, DIM)
            assert counts == {"_displacement_matrix": 0}
            assert betas == [optimize_displacement(spec, det, DIM)[0] for spec in specs]
    assert _search_displacements([], IDEAL_DETECTOR, DIM) == []


def test_homodyne_search_returns_the_optimizers_point_without_a_fock_score(monkeypatch):
    for alpha in (0.3, 0.9, 1.3):
        specs = [spec_of(c0sq, alpha, phi) for c0sq, phi in ((0.5, 0.0), (0.8, 0.3), (0.95, 2.0))]
        counts = {"quadrature_interval_operator": 0}
        with monkeypatch.context() as patch:
            counting(patch, fidelity_module, "quadrature_interval_operator", counts)
            optima = _search_homodynes(specs)
        assert counts == {"quadrature_interval_operator": 0}
        assert optima == [optimize_homodyne(spec, DIM)[:2] for spec in specs]
    assert _search_homodynes([]) == []
    with pytest.raises(ValueError, match="share one alpha"):
        _search_homodynes([spec_of(0.5, 0.3), spec_of(0.5, 0.4)])


def test_optimizers_report_the_fock_value_at_their_point():
    for spec in (spec_of(0.8, 0.7, 0.3), spec_of(0.55, 1.2, 0.0)):
        for det in (IDEAL_DETECTOR, LAB):
            beta, f = optimize_displacement(spec, det, DIM)
            assert f == displaced_click_fidelity(spec, beta, det, DIM)
        x, th, f = optimize_homodyne(spec, DIM)
        assert f == homodyne_fidelity(spec, x, th, DIM)


def test_click_model_never_beats_ideal_counter():
    det = DetectorModel(eta=0.689)
    for c0sq in (0.5, 0.75, 1.0):
        spec = spec_of(c0sq)
        _, f_real = optimize_displacement(spec, det, DIM)
        _, f_ideal = optimize_displacement(spec, IDEAL_DETECTOR, DIM)
        assert f_real <= f_ideal + 1e-12


def test_displaced_povm_route_selection():
    spec = spec_of(0.6)
    assert displaced_povm(spec, 0.2, IDEAL_DETECTOR, DIM).label == "displaced-pnrd"
    assert displaced_povm(spec, 0.2, DetectorModel(eta=0.9), DIM).label == "displaced-onoff"


def test_homodyne_optimum_half_weight():
    x, th, f = optimize_homodyne(spec_of(0.5), DIM)
    assert f == pytest.approx(0.929332, abs=1e-5)
    assert abs(x) < 1e-3 and abs(th) < 1e-3


def test_homodyne_small_signal_limit():
    # as alpha -> 0 the targets degenerate to (|0> +- |1>)/sqrt(2) and the
    # best threshold detector reaches 1/2 + 1/sqrt(2*pi), well above the
    # random-guess floor
    _, _, f = optimize_homodyne(spec_of(0.5, alpha=1e-3), DIM)
    assert f == pytest.approx(0.5 + 1.0 / math.sqrt(2.0 * math.pi), abs=1e-4)


def test_homodyne_mirrored_weights():
    xa, tha, fa = optimize_homodyne(spec_of(0.3), DIM)
    xb, thb, fb = optimize_homodyne(spec_of(0.7), DIM)
    assert fa == pytest.approx(fb, abs=1e-9)
    assert xa == pytest.approx(-xb, abs=1e-5)
    assert 0.5 <= fa <= 1.0 + 1e-12


def test_homodyne_fixed_point_evaluation():
    # threshold far to the left accepts everything for outcome 0
    f = homodyne_fidelity(spec_of(0.8), -20.0, 0.0, DIM)
    assert f == pytest.approx(0.5, abs=1e-9)


def test_phase_reparameterization_invariance():
    b = 0.3 + 0.1j
    f1 = displaced_click_fidelity(spec_of(0.7, phi=0.4), b, IDEAL_DETECTOR, DIM)
    f2 = displaced_click_fidelity(spec_of(0.7, phi=0.4 + 2 * math.pi), b, IDEAL_DETECTOR, DIM)
    assert abs(f1 - f2) < 1e-10

    # with c1 = 0 the relative phase multiplies nothing
    f3 = displaced_click_fidelity(spec_of(1.0, phi=0.0), b, IDEAL_DETECTOR, DIM)
    f4 = displaced_click_fidelity(spec_of(1.0, phi=1.1), b, IDEAL_DETECTOR, DIM)
    assert abs(f3 - f4) < 1e-10

    # conjugating the phase and the displacement together changes nothing
    f5 = displaced_click_fidelity(spec_of(0.7, phi=-0.4), b.conjugate(), IDEAL_DETECTOR, DIM)
    assert abs(f1 - f5) < 1e-10


def test_report_validation():
    spec = spec_of(0.75)
    beta, f_dp = optimize_displacement(spec, IDEAL_DETECTOR, DIM)
    x, th, f_hd = optimize_homodyne(spec, DIM)
    rep = FidelityReport(f_dp, f_hd, pnrd_fidelity(spec), beta, x, th, spec, IDEAL_DETECTOR)
    rep.verify(DIM)

    bad = FidelityReport(f_dp - 1e-4, f_hd, 0.75, beta, x, th, spec, IDEAL_DETECTOR)
    with pytest.raises(ArithmeticError):
        bad.verify(DIM)
    with pytest.raises(ValueError):
        FidelityReport(1.2, f_hd, 0.75, beta, x, th, spec, IDEAL_DETECTOR)


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


def test_sweep_batched_matches_per_amplitude():
    # the displacement guard scan builds every radius from one (R, N, N)
    # stack; each slice must equal the matrix built for that amplitude alone
    betas = np.concatenate([np.arange(0.0, 1.02 + 1e-12, 0.02), [0.3 + 0.4j, -0.7j]])
    stack = _displacement_matrix(betas, DIM)
    assert stack.shape == (betas.size, 21, 21)
    for b, D in zip(betas, stack):
        assert np.max(np.abs(D - _displacement_matrix(complex(b), DIM))) <= 1e-14

    grid = SweepGrid((0.5, 0.8), (0.25,), (0.0, math.pi / 2))
    reports = sweep(grid, IDEAL_DETECTOR, DIM)
    assert len(reports) == len(grid) == 4
    # grid-index ordering: first axis is the weight
    assert reports[0].spec.c0sq == pytest.approx(0.5)
    assert reports[-1].spec.c0sq == pytest.approx(0.8)
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
            (alone,) = _optimized_reports([spec], det, DIM)
            for name in FidelityReport.__dataclass_fields__:
                assert getattr(report, name) == getattr(alone, name), name


def test_sweep_aggregates_point_failures(monkeypatch):
    # alpha^2 = 6.76 exceeds what a 10-level truncation can hold, so those
    # points must fail without taking down the rest of the sweep, each
    # charged to its own grid index, in grid order
    grid = SweepGrid((0.5, 0.75), (0.25, 6.76), (0.0,))
    errors = []
    with pytest.warns(UserWarning, match="failed"):
        reports = sweep(grid, IDEAL_DETECTOR, TruncationDim(10), errors=errors)
    assert [(round(r.spec.c0sq, 9), round(r.spec.alpha**2, 9)) for r in reports] == [(0.5, 0.25), (0.75, 0.25)]
    assert [(idx, point) for idx, point, _ in errors] == [(1, (0.5, 6.76, 0.0)), (3, (0.75, 6.76, 0.0))]
    assert all(isinstance(exc, fock.CutoffTooSmallError) for _, _, exc in errors)

    # a failing alpha^2 between passing ones; one failing point in an
    # alpha^2 whose other point passes; failures in two alpha^2 passes,
    # listed in grid order, not in the order the passes ran
    verify = FidelityReport.verify
    failing = set()

    def picky(report, dim):
        if (round(report.spec.c0sq, 9), round(report.spec.alpha**2, 9)) in failing:
            raise ArithmeticError("injected")
        verify(report, dim)

    monkeypatch.setattr(FidelityReport, "verify", picky)
    grid = SweepGrid((0.5, 0.75), (0.25, 1.0, 1.6), (0.0,))
    for bad, indices in (
        ({(0.5, 1.0), (0.75, 1.0)}, [1, 4]),
        ({(0.5, 1.6), (0.75, 1.0)}, [2, 4]),
        ({(0.75, 1.0)}, [4]),
    ):
        failing.clear()
        failing.update(bad)
        errors = []
        with pytest.warns(UserWarning, match="failed"):
            reports = sweep(grid, IDEAL_DETECTOR, DIM, errors=errors)
        assert [idx for idx, _, _ in errors] == indices
        assert all(str(exc) == "injected" for _, _, exc in errors)
        assert len(reports) == len(grid) - len(indices)
    # the point that passed beside a failing one equals the point optimized alone
    assert reports[1] == _optimized_reports([spec_of(0.5, 1.0)], IDEAL_DETECTOR, DIM)[0]


def test_sweep_searches_each_alpha_once_and_charges_failures_to_their_points(monkeypatch):
    # a point whose check fails is charged alone, in the same pass: the
    # search runs once per alpha^2 group and the Fock model scores each point
    # once, with no rerun of the failing group point by point
    counts = {"_search_displacements": 0, "homodyne_fidelity": 0}
    counting(monkeypatch, fidelity_module, "_search_displacements", counts)
    counting(monkeypatch, fidelity_module, "homodyne_fidelity", counts)
    verify = FidelityReport.verify

    def picky(report, dim):
        if (round(report.spec.c0sq, 9), round(report.spec.alpha**2, 9)) == (0.75, 1.0):
            raise ArithmeticError("injected")
        verify(report, dim)

    monkeypatch.setattr(FidelityReport, "verify", picky)
    grid = SweepGrid((0.5, 0.75), (0.25, 1.0, 1.6), (0.0,))
    errors = []
    with pytest.warns(UserWarning, match="failed"):
        reports = sweep(grid, IDEAL_DETECTOR, DIM, errors=errors)
    assert counts == {"_search_displacements": 3, "homodyne_fidelity": 6}
    assert [(idx, str(exc)) for idx, _, exc in errors] == [(4, "injected")]
    assert len(reports) == 5

    # a search that fails for one alpha^2 is charged to that group's points only
    monkeypatch.setattr(FidelityReport, "verify", verify)
    search = fidelity_module._search_homodynes

    def failing_search(specs):
        if round(specs[0].alpha ** 2, 9) == 1.6:
            raise ArithmeticError("search failed")
        return search(specs)

    monkeypatch.setattr(fidelity_module, "_search_homodynes", failing_search)
    errors = []
    with pytest.warns(UserWarning, match="failed"):
        reports = sweep(grid, IDEAL_DETECTOR, DIM, errors=errors)
    assert [(idx, str(exc)) for idx, _, exc in errors] == [(2, "search failed"), (5, "search failed")]
    assert [round(r.spec.alpha**2, 9) for r in reports] == [0.25, 1.0, 0.25, 1.0]


def test_quantize_to_schedule():
    levels = [0.1, 0.3, 0.5]
    assert quantize_to_schedule(0.29, levels) == pytest.approx(0.3)
    assert quantize_to_schedule(0.5, [0.25, 0.75]) == pytest.approx(0.25)  # tie -> lower
    q = quantize_to_schedule(0.4j, levels)
    assert abs(q) == pytest.approx(0.5) and q.real == pytest.approx(0.0)
    assert quantize_to_schedule(0.0, levels) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        quantize_to_schedule(0.2, [])
    with pytest.raises(ValueError):
        quantize_to_schedule(0.2, [-0.1, 0.3])
