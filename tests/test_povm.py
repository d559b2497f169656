import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, xlog1py, xlogy

from catproj.fidelity import displaced_povm
from catproj.fock import (
    CutoffTooSmallError,
    ScsMeasurementSpec,
    TruncationDim,
    _logfact,
    displacement_operator,
)
from catproj.povm import (
    IDEAL_DETECTOR,
    DetectorModel,
    HomodyneSpec,
    PovmPair,
    _binomial_loss,
    _counting_povm,
    hermite_functions,
    homodyne_povm,
    quadrature_interval_operator,
    random_povm_pair,
)

from oracles import apply_loss, compensate_loss

DIM = TruncationDim(20)
SPEC_HALF = ScsMeasurementSpec.from_c0sq(0.5, 0.5)



def test_detector_model_validation():
    DetectorModel(eta=0.689, nu=5.32e-5, visibility=0.998)
    assert IDEAL_DETECTOR.is_ideal
    assert not DetectorModel(eta=0.689).is_ideal
    for bad in (dict(eta=1.2), dict(eta=-0.1), dict(nu=1.0), dict(visibility=1.01)):
        with pytest.raises(ValueError):
            DetectorModel(**bad)


def test_homodyne_spec_validation():
    HomodyneSpec(x_th=0.0, lo_phase=math.pi)
    with pytest.raises(ValueError):
        HomodyneSpec(x_th=math.inf)
    with pytest.raises(ValueError):
        HomodyneSpec(x_th=0.0, lo_phase=-0.1)
    with pytest.raises(ValueError):
        HomodyneSpec(x_th=0.0, lo_phase=2 * math.pi)


def test_povm_pair_checked_rejects_invalid():
    eye = np.eye(21, dtype=complex)
    with pytest.raises(ValueError):
        PovmPair.checked(DIM, eye, eye)  # not complete
    with pytest.raises(ValueError):
        PovmPair.checked(DIM, 2 * eye, -eye)  # negative part


def test_dp_povm_parity_limit():
    spec = ScsMeasurementSpec(alpha=0.5, c0=1.0, c1=0.0)
    pair = displaced_povm(spec, 0.0, IDEAL_DETECTOR, DIM)
    even = np.diag(np.arange(21) % 2 == 0).astype(complex)
    assert np.array_equal(pair.pi0.entries, even)
    assert np.array_equal(pair.pi1.entries, np.eye(21) - even)


def test_dp_partition_tie_break():
    # at c0^2 = 1/2, phi = 0, beta = 0 every photon number ties, and ties
    # go to outcome 0, so pi0 is the identity
    pair = displaced_povm(SPEC_HALF, 0.0, IDEAL_DETECTOR, DIM)
    assert np.array_equal(pair.pi0.entries, np.eye(21))


def test_dp_povm_completeness_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(5):
        spec = ScsMeasurementSpec.from_c0sq(0.5, rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
        beta = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        pair = displaced_povm(spec, beta, IDEAL_DETECTOR, DIM)
        res = pair.validate()
        assert res["completeness"] < 1e-9
        assert res["min_eigenvalue"] > -1e-9
        assert res["max_entry"] <= 1 + 1e-9


def test_dp_povm_guard_propagates():
    with pytest.raises(CutoffTooSmallError):
        displaced_povm(SPEC_HALF, 1.3, IDEAL_DETECTOR, DIM)


def test_onoff_povm_examples():
    # a click detector counts the vacuum alone as outcome 0, whatever the spec
    pair = _counting_povm(displacement_operator(0.0, DIM).entries, DIM)
    vac = np.zeros((21, 21))
    vac[0, 0] = 1.0
    assert np.max(np.abs(pair.pi0.entries - vac)) < 1e-14

    pair = displaced_povm(SPEC_HALF, 0.0, DetectorModel(eta=0.689), DIM)
    assert pair.pi0.entries[1, 1].real == pytest.approx(0.311, abs=1e-12)

    nu = 5.32e-5
    pair = displaced_povm(SPEC_HALF, 0.0, DetectorModel(nu=nu), DIM)
    assert pair.pi0.entries[0, 0].real == pytest.approx(1 - nu, abs=1e-15)

    # a blind counter (eta = 0) weighs every photon number as no-click, so
    # pi0 = (1 - nu) D D^dag, which is (1 - nu) I up to the truncation edge
    beta = 0.37 - 0.2j
    pair = displaced_povm(SPEC_HALF, beta, DetectorModel(eta=0.0, nu=nu), DIM)
    d = displacement_operator(beta, DIM).entries
    assert np.max(np.abs(pair.pi0.entries - (1 - nu) * d @ d.conj().T)) < 1e-12
    assert np.max(np.abs(pair.pi0.entries[:10, :10] - (1 - nu) * np.eye(10))) < 1e-6

    # ideal displaced on/off is the displaced vacuum projector
    beta = 0.37 - 0.2j
    pair = _counting_povm(displacement_operator(beta, DIM).entries, DIM)
    d = displacement_operator(beta, DIM).entries[:, 0]
    assert np.max(np.abs(pair.pi0.entries - np.outer(d, d.conj()))) < 1e-12


def test_onoff_povm_visibility_shrinks_displacement():
    beta = 0.8
    v = DetectorModel(visibility=0.5)
    pair = displaced_povm(SPEC_HALF, beta, v, DIM)
    ref = _counting_povm(displacement_operator(0.4, DIM).entries, DIM)
    assert np.max(np.abs(pair.pi0.entries - ref.pi0.entries)) < 1e-12


def test_homodyne_full_line_is_identity():
    pair = homodyne_povm(HomodyneSpec(x_th=-20.0), DIM)
    assert np.max(np.abs(pair.pi0.entries - np.eye(21))) < 1e-9


def test_homodyne_frozen_entries():
    E = homodyne_povm(HomodyneSpec(x_th=0.0), DIM).pi0.entries
    assert E[0, 0].real == pytest.approx(0.5, abs=1e-9)
    assert E[0, 1].real == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-9)
    E7 = homodyne_povm(HomodyneSpec(x_th=0.7), DIM).pi0.entries
    assert E7[0, 0].real == pytest.approx(0.5 * erfc(0.7), abs=1e-9)


def test_homodyne_against_adaptive_quadrature():
    # independent route: adaptive quadrature of the same integrand
    rng = np.random.default_rng(7)
    for n_max in (12, 24):
        for x_th in (-3.0, 0.45, 4.0):
            E = quadrature_interval_operator(x_th, TruncationDim(n_max))
            for _ in range(6):
                m, n = rng.integers(0, n_max + 1, size=2)
                ref, err = quad(
                    lambda x: hermite_functions(x, n_max)[m, 0] * hermite_functions(x, n_max)[n, 0],
                    x_th,
                    np.inf,
                    limit=200,
                )
                assert abs(E[m, n] - ref) < 1e-10, (n_max, x_th, m, n)


def test_stacked_interval_operator_is_each_threshold_alone():
    # a sweep scores every homodyne point of an alpha group from one stack:
    # each slice must be, bit for bit, the operator built for its threshold alone;
    # from the clip W = sqrt(2 n_max + 1) + 8 on, the operator is exactly 0
    for n_max in (20, 24):
        dim = TruncationDim(n_max)
        W = math.sqrt(2.0 * n_max + 1.0) + 8.0
        xs = np.array([-20.0, -3.1, -0.2, 0.0, 0.45, 2.7, np.nextafter(W, 0.0), W, W + 1e-9, 30.0, np.inf])
        stack = quadrature_interval_operator(xs, dim)
        assert stack.shape == (xs.size, dim.size, dim.size)
        for x_th, E in zip(xs, stack):
            assert np.array_equal(E, quadrature_interval_operator(float(x_th), dim))
            assert (x_th < W) == E.any(), x_th


def test_homodyne_reflection_identity():
    x = 0.8
    rot = homodyne_povm(HomodyneSpec(x_th=x, lo_phase=math.pi), DIM)
    ref = homodyne_povm(HomodyneSpec(x_th=-x, lo_phase=0.0), DIM)
    assert np.max(np.abs(rot.pi0.entries - ref.pi1.entries)) < 1e-9


def test_homodyne_phase_rotation_structure():
    th = 0.77
    base = homodyne_povm(HomodyneSpec(x_th=0.3), DIM).pi0.entries
    rot = homodyne_povm(HomodyneSpec(x_th=0.3, lo_phase=th), DIM).pi0.entries
    m = np.arange(21)
    ramp = np.exp(1j * th * (m[:, None] - m[None, :]))
    assert np.max(np.abs(rot - ramp * base)) < 1e-12
    pair = homodyne_povm(HomodyneSpec(x_th=0.3, lo_phase=th), DIM)
    res = pair.validate()
    assert res["completeness"] < 1e-9 and res["min_eigenvalue"] > -1e-9


def test_apply_loss_examples():
    even = np.diag(np.arange(21) % 2 == 0).astype(complex)
    pair = PovmPair.checked(DIM, even, np.eye(21) - even)
    same = apply_loss(pair, 1.0)
    assert np.array_equal(same.pi0.entries, pair.pi0.entries)

    # vacuum projector maps to the geometric diagonal
    eta = 0.689
    vac = np.zeros((21, 21), dtype=complex)
    vac[0, 0] = 1.0
    pair = PovmPair.checked(DIM, vac, np.eye(21) - vac)
    lossy = apply_loss(pair, eta)
    ref = np.diag((1 - eta) ** np.arange(21)).astype(complex)
    assert np.max(np.abs(lossy.pi0.entries - ref)) < 1e-12


def kraus_loss_adjoint(pi: np.ndarray, eta: float) -> np.ndarray:
    """sum_k A_k^dag pi A_k with the photon-subtraction Kraus operators
    A_k|n> = sqrt(C(n, k) eta^(n-k) (1 - eta)^k) |n-k>."""
    N = pi.shape[0]
    out = np.zeros_like(pi, dtype=complex)
    for k in range(N):
        A = np.zeros((N, N))
        for n in range(k, N):
            A[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        out += A.T @ pi @ A
    return out


def test_apply_loss_matches_kraus_sum():
    rng = np.random.default_rng(5)
    for n_max in (5, 20):
        for eta in (0.15, 0.5, 0.689, 0.99, 1.0):
            pair = random_povm_pair(TruncationDim(n_max), rng)
            lossy = apply_loss(pair, eta)
            for before, after in ((pair.pi0, lossy.pi0), (pair.pi1, lossy.pi1)):
                assert np.max(np.abs(after.entries - kraus_loss_adjoint(before.entries, eta))) < 1e-12


def xlogy_binomial_loss(eta: float, n_max: int) -> np.ndarray:
    """B[n, j] = C(n, j) eta^j (1 - eta)^(n - j) through scipy's xlogy/xlog1py."""
    lf = _logfact(n_max)
    n, j = np.tril_indices(n_max + 1)
    B = np.zeros((n_max + 1, n_max + 1))
    B[n, j] = np.exp(lf[n] - lf[j] - lf[n - j] + xlogy(j, eta) + xlog1py(n - j, -eta))
    return B


def test_binomial_loss_edges_and_xlogy_oracle():
    assert np.array_equal(_binomial_loss(1.0, 30), np.eye(31))
    dark = _binomial_loss(0.0, 30)
    assert np.all(dark[:, 0] == 1.0) and np.all(dark[:, 1:] == 0.0)
    assert np.array_equal(_binomial_loss(0.689, 100), xlogy_binomial_loss(0.689, 100))
    for n_max in (5, 20, 40, 100):
        for eta in np.linspace(0.01, 0.99, 25):
            assert np.max(np.abs(_binomial_loss(float(eta), n_max) - xlogy_binomial_loss(eta, n_max))) <= 2e-15


def test_apply_loss_preserves_positivity_and_completeness():
    rng = np.random.default_rng(19)
    dim8 = TruncationDim(8)
    for _ in range(100):
        pair = random_povm_pair(dim8, rng)
        lossy = apply_loss(pair, rng.uniform(0.2, 1.0))
        res = lossy.validate()
        assert res["completeness"] < 1e-9
        assert res["min_eigenvalue"] > -1e-9


def test_compensate_loss_roundtrip():
    rng = np.random.default_rng(23)
    dim10 = TruncationDim(10)
    for _ in range(10):
        pair = random_povm_pair(dim10, rng)
        back, _ = compensate_loss(apply_loss(pair, 0.689), 0.689)
        assert np.max(np.abs(back.pi0.entries - pair.pi0.entries)) < 1e-6
        assert np.max(np.abs(back.pi1.entries - pair.pi1.entries)) < 1e-6


def test_compensate_loss_eta_one_is_identity():
    rng = np.random.default_rng(2)
    pair = random_povm_pair(TruncationDim(10), rng)
    same, _ = compensate_loss(pair, 1.0)
    assert np.array_equal(same.pi0.entries, pair.pi0.entries)


def test_compensate_loss_records_repair_diagnostics():
    # a pair that is NOT in the image of the loss map generally needs the
    # eigenvalue clip; the output must still satisfy the pair invariants
    rng = np.random.default_rng(31)
    pair = random_povm_pair(TruncationDim(10), rng)
    comp, diagnostics = compensate_loss(pair, 0.6)
    assert "pre_repair_min_eigenvalue" in diagnostics
    res = comp.validate()
    assert res["completeness"] < 1e-9
    assert res["min_eigenvalue"] > -1e-9


def test_compensate_loss_commutes_with_displacement():
    # D(b) Loss^dag(X) D(b)^dag = Loss^dag(D(sqrt(eta) b) X D(sqrt(eta) b)^dag):
    # compensating an ideal displaced on/off element recovers the vacuum
    # projector displaced by sqrt(eta) * b
    eta, beta = 0.689, 0.6
    lossy = displaced_povm(SPEC_HALF, beta, DetectorModel(eta=eta), DIM)
    comp, _ = compensate_loss(lossy, eta)
    d = displacement_operator(math.sqrt(eta) * beta, DIM).entries[:, 0]
    ref = np.outer(d, d.conj())
    k = 13
    assert np.max(np.abs(comp.pi0.entries[:k, :k] - ref[:k, :k])) < 1e-6


def test_compensate_loss_eta_range():
    rng = np.random.default_rng(4)
    pair = random_povm_pair(TruncationDim(6), rng)
    with pytest.raises(ValueError):
        compensate_loss(pair, 0.05)


def test_random_povm_pair_valid():
    rng = np.random.default_rng(40)
    for _ in range(50):
        pair = random_povm_pair(TruncationDim(8), rng)
        res = pair.validate()
        assert res["completeness"] < 1e-12
        assert res["min_eigenvalue"] > -1e-12
        assert res["max_entry"] <= 1 + 1e-12
