import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from catproj import tomography
from catproj.experiment import Campaign, draw_counts, expected_rates
from catproj.fidelity import displaced_povm
from catproj.fock import (
    MIN_ALPHA,
    FockOperator,
    ScsMeasurementSpec,
    TruncationDim,
    cat_basis,
    coherent_state,
    displacement_operator,
    expect,
    scs_basis_project,
    scs_projectors,
)
from catproj.povm import IDEAL_DETECTOR, PovmPair, _partition, povm_entry_bound_check, random_povm_pair
from catproj.serialize import read_click_table, write_click_table
from catproj.tomography import (
    MAX_GAMMA,
    MLE_PROB_FLOOR,
    ClickTable,
    PhiVector,
    ProbeSet,
    ScsPovm,
    error_bars,
    even_cat_probe_expectation,
    f_statistic,
    gamma_matrix,
    imaginary_probe_expectation,
    measurement_fidelity,
    mle_reconstruct,
    povm_pair_fidelity,
    probe_coefficients,
    series_bound,
    solve_phi,
    tomography_pipeline,
)

import oracles
from oracles import apply_loss

DIM = TruncationDim(24)
ALPHA = 0.499
OPERATING_SPEC = ScsMeasurementSpec.from_c0sq(ALPHA, 0.5, math.pi / 2)
# reference reconstruction of the lab detector at the operating point
REFERENCE = np.array([[0.839, -0.237j], [0.237j, 0.362]])


def exact_table(pair: PovmPair, probes: ProbeSet) -> ClickTable:
    rates = [expect(pair.pi0, coherent_state(a, pair.dim)).real for a in probes.amplitudes()]
    return ClickTable.from_rates(probes.amplitudes(), rates, 1.0)


def experimental_pair(dim=DIM) -> PovmPair:
    """Lossy displaced on/off element at the calibrated operating point."""
    drive, vis, eta, nu = 0.894, 0.998, 0.689, 5.32e-5
    shift = 0.5 * drive * vis * 1j
    dmat = displacement_operator(shift, dim).entries
    proj = np.diag(_partition([t.amps for t in scs_projectors(OPERATING_SPEC, dim)], dmat).astype(complex))
    base = PovmPair.checked(dim, proj, np.eye(dim.size) - proj)
    lossy = apply_loss(base, eta)
    pi0 = (1.0 - nu) * (dmat @ lossy.pi0.entries @ dmat.conj().T)
    return PovmPair.checked(dim, pi0, np.eye(dim.size) - pi0)


def parity_pair(dim=DIM) -> PovmPair:
    """Even/odd photon-number parity projectors."""
    even = np.diag(np.arange(dim.size) % 2 == 0).astype(complex)
    return PovmPair.checked(dim, even, np.eye(dim.size) - even)


def project_pair(pair: PovmPair) -> ScsPovm:
    return ScsPovm(
        scs_basis_project(pair.pi0, ALPHA),
        scs_basis_project(pair.pi1, ALPHA),
    )


def true_odd_coefficients(entries: np.ndarray, count: int) -> np.ndarray:
    """Odd-series coefficients straight from the Fock matrix elements."""
    out = np.zeros(count)
    for l in range(count):
        total = 0.0
        for m in range(2 * l + 2):
            n = 2 * l + 1 - m
            if n <= m or n >= entries.shape[0]:
                continue
            total += (-1.0) ** m * 2.0 * entries[m, n].imag / math.sqrt(
                math.factorial(m) * math.factorial(n)
            )
        out[l] = total
    return out


def true_even_coefficients(entries: np.ndarray, count: int) -> np.ndarray:
    """Even-series coefficients straight from the Fock matrix elements:
    sum over m + n = 2l of (-1)^((n-m)/2) Re<m|P|n> / sqrt(m! n!)."""
    out = np.zeros(count)
    for l in range(count):
        for m in range(2 * l + 1):
            n = 2 * l - m
            if max(m, n) < entries.shape[0]:
                out[l] += (-1.0) ** ((n - m) // 2) * entries[m, n].real / math.sqrt(
                    math.factorial(m) * math.factorial(n)
                )
    return out


def probe_states(alpha: float) -> np.ndarray:
    """The four reconstruction probes as density matrices in the cat basis."""
    coeffs = probe_coefficients(alpha)
    return np.einsum("ik,il->ikl", coeffs, coeffs.conj())


def test_probe_set_validation():
    ps = ProbeSet(0.499, (0.2, 0.3))
    assert ps.k == 2
    assert ps.amplitudes() == (0.499, -0.499, 0.2j, -0.2j, 0.3j, -0.3j)
    with pytest.raises(ValueError):
        ProbeSet(0.0, (0.2,))
    with pytest.raises(ValueError):
        ProbeSet(0.5, ())
    ProbeSet(0.5, tuple(0.1 * (i + 1) for i in range(6)))
    with pytest.raises(ValueError, match="1 to 6 gamma"):
        ProbeSet(0.5, tuple(0.1 * (i + 1) for i in range(7)))
    with pytest.raises(ValueError):
        ProbeSet(0.5, (0.2, -0.3))
    # amplitudes within the 1e-9 that matches a click row to its probe share one row
    for gammas in ((0.2, 0.2), (0.2, 0.2000000000001), (1e-12,)):
        with pytest.raises(ValueError, match="distinct"):
            ProbeSet(0.5, gammas)
    ProbeSet(MIN_ALPHA, (0.2, MAX_GAMMA))
    for alpha, gammas in ((1e-300, (0.2,)), (0.5 * MIN_ALPHA, (0.2,))):
        with pytest.raises(ValueError, match="MIN_ALPHA"):
            ProbeSet(alpha, gammas)
    for far in (np.nextafter(MAX_GAMMA, 6.0), 6.0, 30.0, 1e200):
        with pytest.raises(ValueError, match="MAX_GAMMA"):
            ProbeSet(0.5, (0.2, far))
    for alpha, gammas in ((math.inf, (0.2,)), (math.nan, (0.2,)), (0.5, (0.2, math.inf))):
        with pytest.raises(ValueError, match="finite"):
            ProbeSet(alpha, gammas)


def test_click_table_validation():
    amps = (0.5, -0.5)
    ClickTable(amps, [3.0, 4.0], [7.0, 6.0], [10.0, 10.0])
    with pytest.raises(ValueError):
        ClickTable(amps, [3.0, 4.0], [7.0, 7.0], [10.0, 10.0])  # rows don't sum
    with pytest.raises(ValueError):
        ClickTable(amps, [-1.0, 4.0], [11.0, 6.0], [10.0, 10.0])  # negative
    with pytest.raises(ValueError):
        ClickTable(amps, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])  # zero shots
    # a NaN passes every comparison, so each field is checked for finiteness
    for bad in (
        (amps, [math.nan, 4.0], [7.0, 6.0], [10.0, 10.0]),
        (amps, [3.0, 4.0], [7.0, 6.0], [10.0, math.inf]),
        ((0.5, complex(math.nan, 0.0)), [3.0, 4.0], [7.0, 6.0], [10.0, 10.0]),
    ):
        with pytest.raises(ValueError, match="finite"):
            ClickTable(*bad)

    table = ClickTable.from_rates(amps, [0.25, 0.5], 200)
    r0, r1 = table.rates()
    assert np.allclose(r0, [0.25, 0.5]) and np.allclose(r1, [0.75, 0.5])
    assert table.row_index(-0.5) == 1
    with pytest.raises(KeyError):
        table.row_index(0.3j)

    with pytest.raises(ValueError, match="empty"):
        ClickTable((), [], [], [])


def test_match_probe_rows_reorders_by_amplitude_once():
    # the table itself when its rows are in probe order; otherwise a
    # re-validated table in probe order, each row found by amplitude
    probes = ProbeSet(0.5, (0.3,))
    table = ClickTable.from_rates(probes.amplitudes(), [0.25, 0.5, 0.6, 0.7], 200)
    assert tomography._match_probe_rows(table, probes) is table
    order = [2, 0, 3, 1]
    shuffled = ClickTable(
        [table.probe_amplitudes[i] for i in order], table.counts0[order], table.counts1[order], table.shots[order]
    )
    matched = tomography._match_probe_rows(shuffled, probes)
    assert matched.probe_amplitudes == table.probe_amplitudes
    for name in ("counts0", "counts1", "shots"):
        assert np.array_equal(getattr(matched, name), getattr(table, name)), name
    with pytest.raises(ValueError, match=r"no row at probe amplitude -0\.3j"):
        tomography._match_probe_rows(ClickTable.from_rates((0.5, -0.5, 0.3j, 0.4j), [0.5] * 4, 10), probes)
    with pytest.raises(ValueError, match="has 2 rows, probe set requires 4"):
        tomography._match_probe_rows(ClickTable.from_rates((0.5, -0.5), [0.5] * 2, 10), probes)
    # a row between two accepted probes 1.5e-9 apart lies within 1e-9 of both;
    # it used to stand in for both, and the second probe's own row went unread
    close = ProbeSet(0.5, (0.3, 0.3 + 1.5e-9))
    amplitudes = list(close.amplitudes())
    amplitudes[2] = 1j * (0.3 + 0.75e-9)
    with pytest.raises(ValueError, match="matches two probe amplitudes"):
        tomography._match_probe_rows(ClickTable.from_rates(amplitudes, [0.5] * 6, 10), close)


def test_gamma_matrix_examples():
    assert np.allclose(gamma_matrix(ProbeSet(0.5, (0.2,))), [[-0.2]], atol=1e-15)
    got = gamma_matrix(ProbeSet(0.5, (0.2, 0.3)))
    assert np.max(np.abs(got - [[-0.2, 0.008], [-0.3, 0.027]])) < 1e-15

    rng = np.random.default_rng(5)
    for _ in range(10):
        gs = tuple(np.sort(rng.uniform(0.05, 0.9, size=4)))
        assert abs(np.linalg.det(gamma_matrix(ProbeSet(0.5, gs)))) > 0

    even = gamma_matrix(ProbeSet(0.5, (0.2, 0.3)), parity=0)
    assert np.max(np.abs(even - [[1.0, 0.04], [1.0, 0.09]])) < 1e-15
    for bad in (2, -1):
        with pytest.raises(ValueError, match="parity"):
            gamma_matrix(ProbeSet(0.5, (0.2,)), parity=bad)


def test_series_bounds():
    # odd orders bound the odd series, even orders the even one
    assert series_bound(1) == pytest.approx(1.0, abs=1e-15)
    assert series_bound(3) == pytest.approx(2 / math.sqrt(2) + 1 / math.sqrt(6), abs=1e-15)
    assert series_bound(0) == pytest.approx(1.0, abs=1e-15)
    assert series_bound(2) == pytest.approx(1 + math.sqrt(2), abs=1e-15)
    for bad in (-1, -2):
        with pytest.raises(ValueError):
            series_bound(bad)


def test_probe_set_derives_its_reconstruction_constants_once():
    # the series tables and probe states a reconstruction reads are the
    # public functions' own arrays, read-only, derived once per probe set
    ps = ProbeSet(0.499, (0.2, 0.3, 0.5))
    for parity in (0, 1):
        mat, bounds = ps.series[parity]
        assert np.array_equal(mat, gamma_matrix(ps, parity))
        assert bounds.tolist() == [series_bound(2 * j + parity) for j in range(3)]
        assert not (mat.flags.writeable or bounds.flags.writeable)
    assert np.array_equal(ps.states, probe_states(0.499)) and not ps.states.flags.writeable
    assert ps.series is ps.series and ps.states is ps.states
    assert ps == ProbeSet(0.499, (0.2, 0.3, 0.5))  # derived constants take no part in equality


def test_phi_vector_enforces_bounds():
    for parity, inside, beyond in ((1, [0.9, -1.5], [0.5, 2.0]), (0, [0.9, -2.4], [0.5, 2.5])):
        assert PhiVector(inside, parity).parity == parity
        with pytest.raises(ValueError):
            PhiVector([1.1], parity)
        with pytest.raises(ValueError):
            PhiVector(beyond, parity)
    with pytest.raises(ValueError, match="parity"):
        PhiVector([0.5], 2)
    # the bounds a probe set holds are checked as series_bound's are
    _, odd_bounds = ProbeSet(0.5, (0.2, 0.3)).series[1]
    with pytest.raises(ValueError, match="beyond its bound 1.0$"):
        PhiVector([1.1, 0.0], 1, odd_bounds)
    with pytest.raises(ValueError, match="2 coefficient bounds, got 1"):
        PhiVector([0.5, 0.5], 1, odd_bounds[:1])
    # the true coefficients of physical elements pass the check in both series
    rng = np.random.default_rng(22)
    for _ in range(20):
        pair = random_povm_pair(TruncationDim(5), rng)
        for el in (pair.pi0, pair.pi1):
            PhiVector(true_odd_coefficients(el.entries, 5), 1)
            PhiVector(true_even_coefficients(el.entries, 5), 0)


def test_solve_phi_roundtrip():
    probes = ProbeSet(0.499, (0.2, 0.3, 0.45))
    for parity in (1, 0):
        mat = gamma_matrix(probes, parity)
        bounds = np.array([series_bound(2 * k + parity) for k in range(3)])
        zero = solve_phi(np.zeros(3), probes, parity)
        assert zero.parity == parity and np.max(np.abs(zero.values)) == 0.0

        target = 0.3 * bounds * np.array([1.0, -1.0, 1.0])
        got = solve_phi(mat @ target, probes, parity).values
        assert np.max(np.abs(got - target)) < 1e-8

        # a target demanding out-of-box coefficients yields the in-box optimum:
        # KKT holds, with a zero gradient on every coordinate off its bound and
        # an outward-pointing one on every coordinate at its bound
        for scale in (np.full(3, 1.5), np.array([1.2, 0.3, 0.1])):
            f_big = mat @ (scale * bounds)
            x = solve_phi(f_big, probes, parity).values
            assert np.all(np.abs(x) <= bounds + 1e-9)
            grad = mat.T @ (mat @ x - f_big)
            free = np.abs(x) < bounds - 1e-12
            assert np.max(np.abs(grad[free]), initial=0.0) <= 1e-10
            assert np.all(grad[~free] * np.sign(x[~free]) <= 1e-10)
        assert 0 < np.count_nonzero(free) < x.size  # the last target is a mixed case


def test_solve_phi_matches_scipy_bvls_outside_the_box():
    # scipy's bounded-variable least squares as the oracle; its default
    # max_iter (the number of variables) can stop short of the optimum
    from scipy.optimize import lsq_linear

    gen = np.random.default_rng(19)
    seen = []
    while len(seen) < 200:
        k, parity = int(gen.integers(1, 7)), int(gen.integers(0, 2))
        probes = ProbeSet(0.499, tuple(np.sort(gen.uniform(0.1, 1.0, k))))
        mat = gamma_matrix(probes, parity)
        bounds = np.array([series_bound(2 * j + parity) for j in range(k)])
        f = mat @ (gen.uniform(-2.5, 2.5, k) * bounds) + gen.normal(0.0, 0.05, k)
        if np.all(np.abs(np.linalg.solve(mat, f)) <= bounds):
            continue  # an interior fit, the exact solve
        x = solve_phi(f, probes, parity).values
        ref = lsq_linear(mat, f, bounds=(-bounds, bounds), method="bvls", max_iter=100)
        assert ref.status != 0
        assert np.max(np.abs(x - ref.x)) <= 1e-12
        residual, ref_residual = np.linalg.norm(mat @ x - f), np.linalg.norm(mat @ ref.x - f)
        assert residual <= ref_residual * (1 + 1e-12)
        seen.append((k, parity))
    assert len(set(seen)) == 12


def test_solve_phi_takes_the_vertex_a_huge_statistic_picks():
    # at this |f| the fit's objective is -f.Ax to within rounding, least at
    # the vertex sign(A^T f) * bounds; the residuals of all faces round to
    # one value, so ranking the faces by residual picks the first face
    probes = ProbeSet(0.499, (0.2, 0.3))
    for parity, direction in ((1, [1.0, -1.0]), (0, [1.0, 2.0])):
        mat = gamma_matrix(probes, parity)
        bounds = np.array([series_bound(2 * j + parity) for j in range(2)])
        for big in (1e20, 1e150, 1e300):
            f = big * np.array(direction)
            assert np.array_equal(solve_phi(f, probes, parity).values, np.sign(mat.T @ f) * bounds)


def test_solve_phi_rejects_a_non_finite_statistic():
    probes = ProbeSet(0.499, (0.2, 0.3))
    for bad in (math.inf, -math.inf, math.nan):
        for parity in (1, 0):
            with pytest.raises(ValueError, match="finite"):
                solve_phi(np.array([0.1, bad]), probes, parity)


def test_solve_even_series_roundtrip():
    probes = ProbeSet(0.499, (0.2, 0.3))
    target = np.array([0.4, -0.9])
    got = solve_phi(gamma_matrix(probes, parity=0) @ target, probes, parity=0)
    assert got.parity == 0
    assert np.max(np.abs(got.values - target)) < 1e-8


def test_f_statistic_symmetric_counts():
    probes = ProbeSet(0.5, (0.2,))
    clicks = ClickTable.from_rates(probes.amplitudes(), [0.3, 0.3, 0.41, 0.41], 100)
    f = f_statistic(clicks, probes)
    assert np.max(np.abs(f)) == 0.0
    # the even statistic of the same rows is their sum over 2 exp(-gamma^2)
    f = f_statistic(clicks, probes, parity=0)
    assert np.max(np.abs(f - np.array([[0.41], [0.59]]) / math.exp(-0.04))) < 1e-15

    # an undisplaced on/off element is phase-insensitive: exact rates at
    # +-i*gamma coincide
    vac = np.zeros((DIM.size, DIM.size), dtype=complex)
    vac[0, 0] = 1.0
    pair = PovmPair.checked(DIM, vac, np.eye(DIM.size) - vac)
    f = f_statistic(exact_table(pair, probes), probes)
    assert np.max(np.abs(f)) < 1e-15


def test_f_statistic_matches_series_from_matrix_elements():
    pair = displaced_povm(OPERATING_SPEC, 0.894j, IDEAL_DETECTOR, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    table = exact_table(pair, probes)
    f = f_statistic(table, probes)
    coeffs = true_odd_coefficients(pair.pi0.entries, 11)
    for k, g in enumerate(probes.gammas):
        powers = g ** (2 * np.arange(11) + 1)
        signs = (-1.0) ** (np.arange(11) + 1)
        assert abs(f[0, k] - float((signs * powers) @ coeffs)) < 1e-8
    # outcome-1 statistic is the exact negative (rates sum to one)
    assert np.max(np.abs(f[0] + f[1])) < 1e-12

    f = f_statistic(table, probes, parity=0)
    coeffs = true_even_coefficients(pair.pi0.entries, 12)
    for k, g in enumerate(probes.gammas):
        assert abs(f[0, k] - float(g ** (2 * np.arange(12)) @ coeffs)) < 1e-8


def test_imaginary_probe_expectation_diagonal_case():
    phi = PhiVector(np.zeros(2))
    val, raw = imaginary_probe_expectation(phi, 0.499, (0.3, 0.5))
    assert val == raw == pytest.approx(0.4, abs=1e-15)


def test_imaginary_probe_expectation_parity_oracle():
    pair = parity_pair()
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    run = tomography_pipeline(exact_table(pair, probes), probes)
    probe = (coherent_state(ALPHA, DIM).amps + 1j * coherent_state(-ALPHA, DIM).amps) / math.sqrt(2)
    direct = (probe.conj() @ pair.pi0.entries @ probe).real
    assert abs(run.expectations["im_plus"] - direct) < 1e-8


def test_synthesized_expectations_match_direct_oracles():
    pair = displaced_povm(OPERATING_SPEC, 0.894j, IDEAL_DETECTOR, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3, 0.4, 0.5, 0.6))
    run = tomography_pipeline(exact_table(pair, probes), probes)

    probe_plus = (coherent_state(ALPHA, DIM).amps + 1j * coherent_state(-ALPHA, DIM).amps) / math.sqrt(2)
    probe_minus = (coherent_state(ALPHA, DIM).amps - 1j * coherent_state(-ALPHA, DIM).amps) / math.sqrt(2)
    cat_plus = cat_basis(ALPHA, DIM)[0].amps
    for key, vec in (("im_plus", probe_plus), ("im_minus", probe_minus), ("cat_plus", cat_plus)):
        direct = (vec.conj() @ pair.pi0.entries @ vec).real
        assert abs(run.expectations[key] - direct) < 1e-4, key


def test_imaginary_probe_expectation_clamps():
    val, raw = imaginary_probe_expectation(PhiVector([1.0]), 0.9, (0.9, 0.95))
    assert raw > 1.0
    assert val == 1.0
    val, raw = imaginary_probe_expectation(PhiVector([1.0]), 0.9, (0.05, 0.1), sign=-1)
    assert raw < 0.0
    assert val == 0.0
    with pytest.raises(ValueError):
        imaginary_probe_expectation(PhiVector([0.5]), 0.9, (0.5, 0.5), sign=2)
    with pytest.raises(ValueError, match="odd series"):
        imaginary_probe_expectation(PhiVector([0.5], parity=0), 0.9, (0.5, 0.5))


def test_even_cat_probe_expectation_formula():
    # diagonal projector onto vacuum: rates and cross term are both known
    q = math.exp(-(ALPHA**2))
    psi = PhiVector([1.0, 0.0], parity=0)
    val, raw = even_cat_probe_expectation(psi, ALPHA, (q, q))
    nplus_sq = 2 * (1 + math.exp(-2 * ALPHA**2))
    assert raw == pytest.approx((2 * q + 2 * q) / nplus_sq, abs=1e-15)
    assert val == raw
    with pytest.raises(ValueError, match="even series"):
        even_cat_probe_expectation(PhiVector([1.0, 0.0]), ALPHA, (q, q))


def test_probe_coefficients_are_normalized():
    coeffs = probe_coefficients(ALPHA)
    norms = np.linalg.norm(coeffs, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert coeffs[3, 0] == 1.0 and coeffs[3, 1] == 0.0


def test_probe_coefficients_keep_their_digits_at_min_alpha():
    # |<C-|alpha>|^2 = N-^2 / 4 = (1 - e^{-2 alpha^2}) / 2, which a truncated
    # 1 - <alpha|-alpha> loses to cancellation (3.9e-9 relative at MIN_ALPHA)
    odd_weight = abs(probe_coefficients(MIN_ALPHA)[0, 1]) ** 2
    exact = -math.expm1(-2.0 * MIN_ALPHA**2) / 2.0
    assert odd_weight == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_mle_forward_model_oracle():
    rng = np.random.default_rng(17)
    rho = probe_states(ALPHA)
    for _ in range(5):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(z)[0]
        vals = rng.uniform(0.05, 0.95, size=2)
        a0 = (u * vals) @ u.conj().T
        p = np.einsum("ikl,lk->i", rho, a0).real
        freq = np.stack([p, 1.0 - p], axis=1)
        got = mle_reconstruct(rho, freq)
        assert got.diagnostics["converged"] and got.diagnostics["iterations"] == 0
        assert set(got.diagnostics) == {"iterations", "converged", "final_delta", "log_likelihood"}
        assert np.max(np.abs(got.pi0 - a0)) < 1e-12
        assert np.max(np.abs(got.pi0 + got.pi1 - np.eye(2))) < 1e-6


def test_mle_near_degenerate_optimum_is_exact():
    # an almost-proportional-to-identity element leaves a nearly flat
    # likelihood direction, on which the fixed point's entry-change stop
    # rule used to time out; the interior optimum is the linear inversion
    rng = np.random.default_rng(17)
    rho = probe_states(ALPHA)
    for _ in range(2):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(z)[0]
        vals = rng.uniform(0.05, 0.95, size=2)
    assert abs(vals[0] - vals[1]) < 0.02
    a0 = (u * vals) @ u.conj().T
    p = np.einsum("ikl,lk->i", rho, a0).real
    got = mle_reconstruct(rho, np.stack([p, 1.0 - p], axis=1))
    assert got.diagnostics["converged"] and got.diagnostics["iterations"] == 0
    assert np.max(np.abs(got.pi0 - a0)) < 1e-12


def boundary_input():
    """The compensated re-read of fig4 at c0^2 = 0.8, quantize off, seed 11,
    whose linear inversion lies outside [0, 1]: probe states, frequencies."""
    aa, ab, bb = 0.8547753316089116, 0.3523272116680554, 0.1452246683910883
    rho = np.array(
        [
            [[aa, ab], [ab, bb]],
            [[aa, -ab], [-ab, bb]],
            [[0.8547753316089115, 0.35232721166805536j],
             [-0.35232721166805536j, 0.14522466839108827]],
            [[1.0, 0.0], [0.0, 0.0]],
        ],
        dtype=complex,
    )
    q = np.array([0.99995, 0.499605, 0.7520178344361541, 0.8522405012209271])
    return rho, np.stack([q, 1.0 - q], axis=1)


def duality_gap(rho: np.ndarray, freq: np.ndarray, pi0: np.ndarray) -> float:
    """Frank-Wolfe bound on L* - L(pi0) over 0 <= pi0 <= I: with G the
    gradient of L in pi0, sum(max(eig G, 0)) - Tr(G pi0).  Rows of zero
    frequency contribute nothing."""
    p0 = np.einsum("ikl,lk->i", rho, pi0).real
    q = np.stack([p0, 1.0 - p0], axis=1)
    ratio = np.divide(freq, q, out=np.zeros_like(q), where=freq > 0.0)
    grad = np.einsum("i,ikl->kl", ratio[:, 0] - ratio[:, 1], rho)
    return float(np.clip(np.linalg.eigvalsh(grad), 0.0, None).sum() - np.trace(grad @ pi0).real)


def test_mle_boundary_optimum_is_certified():
    # the inversion lies outside [0, 1]; a diluted fixed point (Rehacek et
    # al., PRA 75, 042108) stops short on this input at -1.6726064
    rho, freq = boundary_input()
    got = mle_reconstruct(rho, freq)
    assert got.diagnostics["converged"] and got.diagnostics["iterations"] > 0
    assert duality_gap(rho, freq, got.pi0) <= 1e-12
    assert got.diagnostics["duality_gap"] <= 1e-12
    assert got.diagnostics["log_likelihood"] >= -1.6726030
    assert not any(key.startswith("pre_repair") for key in got.diagnostics)
    for el in (got.pi0, got.pi1):
        w = np.linalg.eigvalsh(el)
        assert w[0] >= 0.0 and w[-1] <= 1.0
    assert np.max(np.abs(got.pi0 + got.pi1 - np.eye(2))) <= 1e-15


def test_mle_raises_when_the_boundary_gap_stays_open(monkeypatch):
    monkeypatch.setattr(tomography, "MLE_MAX_STEPS", 1)
    with pytest.raises(tomography.ConvergenceError, match="duality gap"):
        mle_reconstruct(*boundary_input())


def six_probe_states() -> np.ndarray:
    """The four reconstruction probes plus |C-> and (|C+> + i|C->)/sqrt(2)."""
    extra = np.array([[0.0, 1.0], [1.0, 1.0j]]) / np.array([[1.0], [math.sqrt(2.0)]])
    return np.concatenate([probe_states(ALPHA), np.einsum("ik,il->ikl", extra, extra.conj())])


# E_k with pi0 = sum_k x_k E_k for x = (a, b, Re c, Im c) and pi0 = [[a, c], [c*, b]]
ELEMENT_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])


def oracle_barrier_newton(rho: np.ndarray, freq: np.ndarray) -> tuple[np.ndarray, float]:
    """The barrier path following of ``tomography._barrier_newton`` in numpy
    array arithmetic: numpy inverses of pi0 and I - pi0, einsum traces for
    the barrier gradient and Hessian, ``np.linalg.solve`` for the step and
    ``eigvalsh`` for the certificate.  Returns pi0 and its duality gap."""
    design = tomography._design(rho)

    def weights(x):
        p = design @ x
        q = np.stack([p, 1.0 - p], axis=1)
        ratio = np.divide(freq, q, out=np.zeros_like(q), where=freq > 0.0)
        curvature = np.divide(ratio, q, out=np.zeros_like(q), where=freq > 0.0)
        return ratio[:, 0] - ratio[:, 1], curvature.sum(axis=1)

    x = np.array([0.5, 0.5, 0.0, 0.0])
    for mu in 10.0 ** -np.arange(14):
        previous = math.inf
        for _ in range(tomography.MLE_MAX_STEPS):
            pi0 = np.tensordot(x, ELEMENT_BASIS, axes=1)
            slope, curvature = weights(x)
            inverses = np.linalg.inv(np.stack([pi0, np.eye(2) - pi0]))
            scaled = inverses[:, None] @ ELEMENT_BASIS[None]  # Y E_k
            barrier_grad = np.array([-1.0, 1.0]) @ np.einsum("jkaa->jk", scaled).real
            barrier_hess = np.einsum("jkab,jlba->kl", scaled, scaled).real
            grad = -design.T @ slope + mu * barrier_grad
            hess = design.T @ (curvature[:, None] * design) + mu * barrier_hess
            dx = -np.linalg.solve(hess, grad)
            lam = math.sqrt(max(-float(grad @ dx), 0.0) / mu)
            x = x + dx * (1.0 if lam <= 0.25 else 1.0 / (1.0 + lam))
            if lam < 1e-7 or previous <= lam <= 0.25:
                break
            previous = lam
    slope, _ = weights(x)
    gradient = np.einsum("i,ikl->kl", slope, rho)
    gap = float(np.clip(np.linalg.eigvalsh(gradient), 0.0, None).sum() - slope @ (design @ x))
    return np.tensordot(x, ELEMENT_BASIS, axes=1), gap


def boundary_cases():
    """Boundary MLE inputs: the fig4 re-read, the six-probe sets, and a seeded
    family of four-probe rates whose linear inversion is unphysical."""
    cases = [boundary_input()]
    for rates in ([0.0] * 6, [1.0] * 6, [1.0, 0.3, 0.0, 0.8, 1.0, 0.45]):
        q = np.array(rates)
        cases.append((six_probe_states(), np.stack([q, 1.0 - q], axis=1)))
    rng = np.random.default_rng(2024)
    while len(cases) < 24:
        rho = probe_states(float(rng.uniform(0.2, 1.0)))
        q = rng.uniform(0.0, 1.0, 4)
        freq = np.stack([q, 1.0 - q], axis=1)
        w = np.linalg.eigvalsh(tomography._linear_inversion(rho, freq))
        if w[0] < 0.0 or w[-1] > 1.0:
            cases.append((rho, freq))
    return cases


@pytest.mark.parametrize("case", range(24))
def test_scalar_barrier_newton_matches_the_array_oracle(case):
    rho, freq = boundary_cases()[case]
    want, want_gap = oracle_barrier_newton(rho, freq)
    got, diagnostics = tomography._barrier_newton(rho, freq)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert want_gap <= 1e-12
    assert diagnostics["duality_gap"] <= 1e-12
    assert duality_gap(rho, freq, got) <= 1e-12
    assert got[0, 1] == np.conj(got[1, 0]) and got[0, 0].imag == got[1, 1].imag == 0.0


def test_spd_solve_solves_and_rejects_indefinite_matrices():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4))
    h = z @ z.T + 0.1 * np.eye(4)
    v = rng.normal(size=4)
    upper = tuple(h[np.triu_indices(4)])
    assert np.max(np.abs(np.array(tomography._spd_solve(upper, tuple(v))) - np.linalg.solve(h, v))) <= 1e-12
    for bad in (np.diag([1.0, 1.0, -1.0, 1.0]), np.ones((4, 4)), np.full((4, 4), np.nan)):
        with pytest.raises(tomography.ConvergenceError, match="positive definite"):
            tomography._spd_solve(tuple(bad[np.triu_indices(4)]), (1.0, 0.0, 0.0, 0.0))


def test_newton_system_rejects_an_iterate_outside_the_interior():
    rows = [(*d, 0.5, 0.5) for d in tomography._design(probe_states(ALPHA)).tolist()]
    for x in ((1.0, 0.5, 0.0, 0.0), (0.5, 0.5, 0.5, 0.1), (-0.1, 0.5, 0.0, 0.0)):
        with pytest.raises(tomography.ConvergenceError, match="interior"):
            tomography._newton_system(rows, x, 1.0)


@pytest.mark.parametrize(
    "rates",
    [np.zeros(6), np.ones(6), np.array([1.0, 0.3, 0.0, 0.8, 1.0, 0.45])],
    ids=["all-0", "all-1", "mixed"],
)
def test_mle_certifies_six_probe_sets(rates):
    # six probes do not go through the four-probe inversion; rates of exactly
    # 0 and 1 put the optimum on a corner or a face of [0, I]
    rho = six_probe_states()
    freq = np.stack([rates, 1.0 - rates], axis=1)
    got = mle_reconstruct(rho, freq)
    assert np.isfinite(got.pi0).all() and np.isfinite(got.diagnostics["log_likelihood"])
    assert got.diagnostics["duality_gap"] <= 1e-12
    assert duality_gap(rho, freq, got.pi0) <= 1e-12
    if np.all(rates == rates[0]):  # pi0 = 0 or I reproduces every rate
        assert got.diagnostics["log_likelihood"] >= -1e-12


PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def log_likelihood(rho: np.ndarray, freq: np.ndarray, pi0: np.ndarray) -> float:
    p0 = np.einsum("ikl,lk->i", rho, pi0).real
    p = np.maximum(np.stack([p0, 1.0 - p0], axis=1), MLE_PROB_FLOOR)
    return float(np.sum(freq * np.log(p)))


@PROPERTY_SETTINGS
@given(
    alpha=st.floats(0.2, 1.0),
    spectrum=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    theta=st.floats(0.0, math.pi),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_mle_recovers_any_interior_element_in_closed_form(alpha, spectrum, theta, phase):
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])
    a0 = (u * np.array(spectrum)) @ u.conj().T
    rho = probe_states(alpha)
    p = np.einsum("ikl,lk->i", rho, a0).real
    got = mle_reconstruct(rho, np.stack([p, 1.0 - p], axis=1))
    assert got.diagnostics["converged"] and got.diagnostics["iterations"] == 0
    assert np.max(np.abs(got.pi0 - a0)) < 1e-10


@PROPERTY_SETTINGS
@given(alpha=st.floats(0.2, 1.0), rates=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_mle_beats_the_clipped_inversion_on_the_boundary(alpha, rates):
    rho = probe_states(alpha)
    q = np.array(rates)
    freq = np.stack([q, 1.0 - q], axis=1)
    w, vecs = np.linalg.eigh(tomography._linear_inversion(rho, freq))
    assume(w[0] < 0.0 or w[-1] > 1.0)
    got = mle_reconstruct(rho, freq)
    assert isinstance(got, ScsPovm) and got.diagnostics["iterations"] > 0
    assert duality_gap(rho, freq, got.pi0) <= 1e-12
    clipped = (vecs * np.clip(w, 0.0, 1.0)) @ vecs.conj().T
    assert got.diagnostics["log_likelihood"] >= log_likelihood(rho, freq, clipped)


def test_mle_maximum_entropy_fixed_point():
    rho = probe_states(ALPHA)
    got = mle_reconstruct(rho, np.full((4, 2), 0.5))
    assert np.max(np.abs(got.pi0 - 0.5 * np.eye(2))) < 1e-9
    assert got.diagnostics["converged"]


def test_mle_input_validation():
    rho = probe_states(ALPHA)
    with pytest.raises(ValueError):
        mle_reconstruct(rho, np.full((4, 2), 0.4))  # rows don't sum to 1
    with pytest.raises(ValueError, match="finite"):
        mle_reconstruct(rho, np.full((4, 2), np.nan))  # passes every comparison
    with pytest.raises(ValueError):
        mle_reconstruct(rho * 2.0, np.full((4, 2), 0.5))  # traces wrong
    bad = rho.copy()
    bad[0] = np.array([[0.5, 0.9], [0.9, 0.5]])
    with pytest.raises(ValueError):
        mle_reconstruct(bad, np.full((4, 2), 0.5))  # not PSD


def test_mle_rejects_a_probe_that_is_not_hermitian():
    # the design reads only rho_10 of each probe, so a probe whose rho_01 is
    # not its conjugate would be fitted as some other, Hermitian state
    rho = probe_states(ALPHA)
    freq = np.array([[f, 1.0 - f] for f in (0.9, 0.5, 0.7, 0.8)])
    mle_reconstruct(rho, freq)
    for bad in ([[0.5, 0.4], [0.0, 0.5]], [[0.5 + 1e-6j, 0.0], [0.0, 0.5 - 1e-6j]]):
        skewed = rho.copy()
        skewed[3] = bad  # unit trace, and a positive Hermitian part
        with pytest.raises(ValueError, match="not Hermitian"):
            mle_reconstruct(skewed, freq)


def test_scs_povm_validation():
    ScsPovm(0.5 * np.eye(2), 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        ScsPovm(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        ScsPovm(np.diag([1.5, 0.5]), np.diag([-0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scs_povm_rejects_non_finite_elements(bad):
    # NaN passes every ordered comparison, so it must be rejected up front
    full = np.full((2, 2), bad, dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        ScsPovm(full, np.eye(2) - full)
    one = 0.5 * np.eye(2, dtype=complex)
    one[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ScsPovm(one, np.eye(2) - one)


def random_hermitian(rng, spectrum) -> np.ndarray:
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    return (u * spectrum) @ u.conj().T


def test_closed_form_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(23)
    cases = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(200)]  # not Hermitian
    cases += [random_hermitian(rng, rng.uniform(-1.0, 2.0, 2)) for _ in range(200)]
    cases += [random_hermitian(rng, [w, w]) for w in rng.uniform(-1.0, 2.0, 20)]  # degenerate
    cases += [np.zeros((2, 2)), np.eye(2), np.diag([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]])]
    cases += [np.array([[1e-300, 1e-300j], [0.0, 1e300]]), np.array([[3.0, 0.0], [4.0j, 3.0]])]
    for m in cases:
        m = np.asarray(m, dtype=complex)
        ref = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        low, high = tomography._eigvals_2x2(m)
        assert low <= high
        scale = max(1.0, float(np.max(np.abs(m))))
        assert abs(low - ref[0]) <= 1e-15 * scale and abs(high - ref[1]) <= 1e-15 * scale, m


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T


def uhlmann(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Eigen-route Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    Where sigma is singular, sqrt(rho) sigma sqrt(rho) has an eigenvalue that
    is 0 only up to rounding, about 1e-17, whose square root moves the result
    by about 1e-8; a singular rho has an exact 0 when eigh finds one."""
    s = psd_sqrt(rho)
    evals = np.linalg.eigvalsh(0.5 * ((s @ sigma @ s) + (s @ sigma @ s).conj().T))
    return float(np.sqrt(np.clip(evals, 0.0, None)).sum() ** 2)


def oracle_pair_fidelity(a: ScsPovm, b: ScsPovm) -> float:
    """``povm_pair_fidelity`` by the eigen route.  The fidelity is symmetric,
    so each element pair goes in with the state of smaller determinant
    first (see ``uhlmann``)."""
    total = 0.0
    for aj, bj in ((a.pi0, b.pi0), (a.pi1, b.pi1)):
        ta, tb = np.trace(aj).real, np.trace(bj).real
        if ta <= 0.0 or tb <= 0.0:
            continue
        states = sorted((aj / ta, bj / tb), key=lambda m: np.linalg.det(m).real)
        total += 0.5 * ta * uhlmann(*states)
    return total


def test_closed_form_pair_fidelity_matches_the_eigen_route():
    rng = np.random.default_rng(29)
    pairs = []
    for _ in range(300):
        el = random_hermitian(rng, rng.uniform(0.0, 1.0, 2))
        pairs.append(ScsPovm(el, np.eye(2) - el))
    # rank-1 elements whose zero eigenvalue is exact in floating point
    for el in (
        np.diag([1.0, 0.0]),
        np.diag([0.0, 0.6]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.array([[0.5, -0.5j], [0.5j, 0.5]]),
        np.array([[0.25, 0.25], [0.25, 0.25]]),
    ):
        pairs.append(ScsPovm(el, np.eye(2) - el))
    for i, a in enumerate(pairs):
        for b in pairs[-8:] + pairs[i : i + 2]:
            assert abs(povm_pair_fidelity(a, b) - oracle_pair_fidelity(a, b)) <= 1e-12


def test_scs_basis_project_identity_and_parity():
    for alpha in (0.1, 0.3, 0.499, 0.7, 1.0):
        m = scs_basis_project(FockOperator(DIM, np.eye(DIM.size)), alpha)
        assert np.max(np.abs(m - np.eye(2))) < 1e-10, alpha
    par = scs_basis_project(parity_pair().pi0, ALPHA)
    assert np.max(np.abs(par - np.diag([1.0, 0.0]))) < 1e-12


def test_scs_basis_project_operating_point():
    m = scs_basis_project(experimental_pair().pi0, ALPHA)
    assert np.max(np.abs(m - REFERENCE)) < 0.05


def test_measurement_fidelity_trivial():
    spec = ScsMeasurementSpec(alpha=0.5, c0=1.0, c1=0.0)
    ideal = ScsPovm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert measurement_fidelity(ideal, spec) == pytest.approx(1.0, abs=1e-12)
    split = ScsPovm(0.5 * np.eye(2), 0.5 * np.eye(2))
    assert measurement_fidelity(split, spec) == pytest.approx(0.5, abs=1e-12)


def test_povm_pair_fidelity_basics():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(z)[0]
    a0 = (u * [0.8, 0.3]) @ u.conj().T
    pair = ScsPovm(a0, np.eye(2) - a0)
    assert povm_pair_fidelity(pair, pair) == pytest.approx(1.0, abs=1e-12)

    sharp = ScsPovm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    split = ScsPovm(0.5 * np.eye(2), 0.5 * np.eye(2))
    assert povm_pair_fidelity(sharp, split) == pytest.approx(0.5, abs=1e-12)


def test_pipeline_noiseless_roundtrip():
    pair = displaced_povm(OPERATING_SPEC, 0.894j, IDEAL_DETECTOR, DIM)
    probes = ProbeSet(ALPHA, (0.2, 0.3, 0.4, 0.5, 0.6))
    run = tomography_pipeline(exact_table(pair, probes), probes)
    assert povm_pair_fidelity(project_pair(pair), run.povm) >= 0.999
    assert run.povm.diagnostics["converged"]
    assert set(run.expectations) >= {"q_plus", "q_minus", "im_plus", "cat_plus"}


def test_pipeline_count_scaling_invariance():
    pair = experimental_pair()
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    table = exact_table(pair, probes)

    def scaled(factor):
        return ClickTable(
            probes.amplitudes(), table.counts0 * factor, table.counts1 * factor, table.shots * factor
        )

    base = tomography_pipeline(scaled(1000.0), probes)
    doubled = tomography_pipeline(scaled(2000.0), probes)
    assert np.array_equal(base.povm.pi0, doubled.povm.pi0)
    assert base.expectations == doubled.expectations


def test_pipeline_probe_count_stability():
    # adding gamma rows shifts the synthesized even channel by its series
    # tail (~alpha^4) but barely moves the channels fixed by the odd series
    pair = experimental_pair()
    run2 = tomography_pipeline(exact_table(pair, ProbeSet(ALPHA, (0.2, 0.3))), ProbeSet(ALPHA, (0.2, 0.3)))
    probes4 = ProbeSet(ALPHA, (0.2, 0.3, 0.4, 0.5))
    run4 = tomography_pipeline(exact_table(pair, probes4), probes4)
    assert abs(run2.povm.pi0[0, 1] - run4.povm.pi0[0, 1]) < 5e-3
    assert abs(run2.expectations["im_plus"] - run4.expectations["im_plus"]) < 5e-3
    assert np.max(np.abs(run2.povm.pi0 - run4.povm.pi0)) < 5e-2


def test_two_by_two_work_calls_no_lapack_eigensolver(monkeypatch):
    # every 2 x 2 spectrum in a reconstruction is the closed form; only the
    # N x N Fock checks may call LAPACK
    def guarded(original):
        def call(m, *args, **kwargs):
            if np.shape(m)[-2:] == (2, 2):
                raise AssertionError(f"{original.__name__} called on a 2 x 2 matrix")
            return original(m, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", guarded(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", guarded(np.linalg.eigh))
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    interior = tomography_pipeline(exact_table(experimental_pair(), probes), probes)
    assert interior.povm.diagnostics["iterations"] == 0
    rates = [1.0, 0.5, 0.7, 0.6, 0.75, 0.65]
    boundary = tomography_pipeline(ClickTable.from_rates(probes.amplitudes(), rates, 1000.0), probes)
    assert boundary.povm.diagnostics["iterations"] > 0
    assert error_bars(interior, 0.011)["pi0_11_re"][0] < interior.povm.pi0[1, 1].real
    assert 0.0 < povm_pair_fidelity(interior.povm, boundary.povm) < 1.0


def test_pipeline_rejects_missing_rows():
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    table = ClickTable.from_rates((ALPHA, -ALPHA, 0.2j, -0.2j), [0.5] * 4, 10)
    with pytest.raises(ValueError):
        tomography_pipeline(table, probes)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def click_stacks(draw):
    """A probe set and 1 to 8 tables of it, with rates anywhere in [0, 1]
    at 20 to 200,000 shots: many series fits fall outside their box and
    many likelihood optima on the boundary."""
    k = draw(st.integers(1, 4))
    gammas = draw(st.lists(st.floats(0.05, 1.5), min_size=k, max_size=k, unique=True))
    probes = ProbeSet(draw(st.floats(0.2, 1.0)), tuple(gammas))
    rows = st.lists(st.floats(0.0, 1.0), min_size=2 + 2 * k, max_size=2 + 2 * k)
    shots = st.sampled_from([20.0, 1_000.0, 200_000.0])
    tables = draw(st.lists(st.tuples(rows, shots), min_size=1, max_size=8))
    return probes, [ClickTable.from_rates(probes.amplitudes(), r, n) for r, n in tables]


# a boundary likelihood optimum, an odd series outside its box, an interior fit
EXAMPLE_STACK = (
    ProbeSet(ALPHA, (0.2, 0.3)),
    [
        ClickTable.from_rates(ProbeSet(ALPHA, (0.2, 0.3)).amplitudes(), rates, 1000.0)
        for rates in ([1.0, 0.5, 0.7, 0.6, 0.75, 0.65], [0.6, 0.4, 0.95, 0.05, 0.05, 0.95], [0.6] * 6)
    ],
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=click_stacks())
@example(case=EXAMPLE_STACK)
def test_a_stacked_reconstruction_gives_each_table_its_own_bits(case):
    # the stacked series solves and 4 x 4 inversions of a sweep keep, for
    # every table, the bits of the table reconstructed alone
    probes, tables = case
    povms = tomography._reconstruct(np.array([t.rates() for t in tables]), probes)
    for table, povm in zip(tables, povms, strict=True):
        want = oracles.pipeline(table, probes).povm
        assert same_bits(povm.pi0, want.pi0) and same_bits(povm.pi1, want.pi1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=click_stacks())
@example(case=EXAMPLE_STACK)
def test_a_single_run_is_the_oracle_pipeline_bit_for_bit(case):
    # a single run, a stack of one, fits both outcomes and reports what the
    # one-table oracle reports, down to the log-likelihood
    probes, tables = case
    for table in tables:
        run, want = tomography_pipeline(table, probes), oracles.pipeline(table, probes)
        assert same_bits(run.f_odd, want.f_odd) and same_bits(run.f_even, want.f_even)
        for got, fit in zip(run.phi + run.psi, want.phi + want.psi, strict=True):
            assert got.parity == fit.parity and same_bits(got.values, fit.values)
        assert list(run.expectations) == list(want.expectations)
        assert same_bits(list(run.expectations.values()), list(want.expectations.values()))
        assert same_bits(run.povm.pi0, want.povm.pi0) and same_bits(run.povm.pi1, want.povm.pi1)
        assert run.povm.diagnostics == want.povm.diagnostics
        assert list(run.povm.diagnostics) == list(want.povm.diagnostics)


def test_the_example_stack_reaches_both_fallbacks(monkeypatch):
    # the explicit example of the two tests above runs one face search and
    # one boundary likelihood fit
    calls = []
    for name in ("solve_phi", "_barrier_newton"):
        real = getattr(tomography, name)

        def spy(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(tomography, name, spy)
    probes, tables = EXAMPLE_STACK
    assert len(tomography._reconstruct(np.array([t.rates() for t in tables]), probes)) == 3
    assert sorted(calls) == ["_barrier_newton", "solve_phi"]


def test_error_bars():
    pair = experimental_pair()
    probes = ProbeSet(ALPHA, (0.2, 0.3))
    run = tomography_pipeline(exact_table(pair, probes), probes)

    flat = error_bars(run, 0.0)
    assert all(hi == lo for lo, hi in flat.values())

    bars = error_bars(run, 0.011)
    center = {
        "pi0_00_re": run.povm.pi0[0, 0].real,
        "pi0_11_re": run.povm.pi0[1, 1].real,
        "im_plus": run.expectations["im_plus"],
    }
    for key, val in center.items():
        lo, hi = bars[key]
        assert lo - 1e-12 <= val <= hi + 1e-12, key
    width = bars["pi0_11_re"][1] - bars["pi0_11_re"][0]
    assert 0.005 < width < 0.035

    with pytest.raises(ValueError):
        error_bars(run, -0.1)
    with pytest.raises(ValueError):
        error_bars(run, 0.6)


def relabeled_error_bars(run, alpha_sigma: float) -> dict:
    """The envelopes over three full pipelines: the central run, and its
    clicks, whose rows the run holds in probe order, relabeled row by row
    with the probe amplitudes at alpha -+ sigma and reconstructed from
    scratch."""
    runs = [run]
    for shifted in (run.probes.alpha - alpha_sigma, run.probes.alpha + alpha_sigma):
        probes = ProbeSet(shifted, run.probes.gammas)
        clicks = ClickTable(probes.amplitudes(), run.clicks.counts0, run.clicks.counts1, run.clicks.shots)
        runs.append(tomography_pipeline(clicks, probes))
    scalars = {
        "pi0_00_re": lambda r: r.povm.pi0[0, 0].real,
        "pi0_01_re": lambda r: r.povm.pi0[0, 1].real,
        "pi0_01_im": lambda r: r.povm.pi0[0, 1].imag,
        "pi0_11_re": lambda r: r.povm.pi0[1, 1].real,
        "im_plus": lambda r: r.expectations["im_plus"],
        "cat_plus": lambda r: r.expectations["cat_plus"],
    }
    return {name: (min(map(get, runs)), max(map(get, runs))) for name, get in scalars.items()}


def test_error_bars_equal_three_full_pipelines(tmp_path):
    # the fit reads no alpha, so re-assembling the central run's fit at
    # alpha -+ sigma gives, bit for bit, what re-running it all gives
    pair = experimental_pair()
    probes = ProbeSet(ALPHA, (0.2, 0.3, 0.45))
    rates = expected_rates(pair, probes)
    tables = [
        draw_counts(rates, Campaign(probes, shots_per_probe=shots, rng_seed=seed))
        for seed, shots in ((0, 200_000), (1, 2_000), (7, 50), (11, 200_000))
    ]
    # a boundary MLE, and a table ingested with its rows in another order
    tables.append(ClickTable.from_rates(probes.amplitudes(), [1.0, 0.5, 0.7, 0.6, 0.75, 0.65, 0.3, 0.9], 1000.0))
    order = [5, 2, 7, 0, 4, 1, 6, 3]
    shuffled = ClickTable(
        [tables[0].probe_amplitudes[i] for i in order],
        tables[0].counts0[order],
        tables[0].counts1[order],
        tables[0].shots[order],
    )
    write_click_table(tmp_path / "clicks.csv", shuffled, {}, 0)
    tables.append(read_click_table(tmp_path / "clicks.csv")[0])
    assert tables[-1].probe_amplitudes != tables[0].probe_amplitudes
    for table in tables:
        run = tomography_pipeline(table, probes)
        for sigma in (0.0, 1e-9, 0.011, 0.1, 0.45):
            assert error_bars(run, sigma) == relabeled_error_bars(run, sigma)


def test_povm_entry_bound_check():
    ok, top = povm_entry_bound_check(FockOperator(DIM, np.eye(DIM.size)))
    assert ok and top == pytest.approx(1.0, abs=1e-12)
    ok, top = povm_entry_bound_check(parity_pair().pi0)
    assert ok and top == pytest.approx(1.0, abs=1e-12)

    bad = np.zeros((5, 5), dtype=complex)
    bad[0, 0] = 1.5
    ok, top = povm_entry_bound_check(FockOperator(TruncationDim(4), bad))
    assert not ok and top == pytest.approx(1.5)

    rng = np.random.default_rng(9)
    dim8 = TruncationDim(8)
    for _ in range(100):
        pair = random_povm_pair(dim8, rng)
        for el in (pair.pi0, pair.pi1):
            ok, top = povm_entry_bound_check(el)
            assert ok and top <= 1.0 + 1e-9


def test_odd_coefficients_of_random_povms_stay_in_box():
    rng = np.random.default_rng(21)
    dim5 = TruncationDim(5)
    for _ in range(50):
        pair = random_povm_pair(dim5, rng)
        for el in (pair.pi0, pair.pi1):
            coeffs = true_odd_coefficients(el.entries, 5)
            for k, c in enumerate(coeffs):
                assert abs(c) <= series_bound(2 * k + 1) + 1e-12
