import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre, gammainc, gammaln

from catproj.fock import (
    COHERENT_TAIL_TOL,
    DISPLACEMENT_GUARD_TOL,
    CutoffTooSmallError,
    DimensionMismatchError,
    FockOperator,
    ScsMeasurementSpec,
    StateVector,
    TruncationDim,
    _logfact,
    cat_basis,
    cat_norm_factors,
    coherent_state,
    displacement_defect,
    displacement_operator,
    expect,
    identity_operator,
    inner,
    max_guarded_amplitude,
    number_state,
    scs_projectors,
)

DIM10 = TruncationDim(10)
DIM20 = TruncationDim(20)


def test_truncation_dim_validation():
    assert TruncationDim(1).size == 2
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError):
            TruncationDim(bad)


def test_state_vector_normalized_flag():
    v = np.zeros(11, dtype=complex)
    v[0] = 1.0
    StateVector(DIM10, v)
    with pytest.raises(ValueError):
        StateVector(DIM10, 0.5 * v)
    with pytest.raises(DimensionMismatchError):
        StateVector(DIM20, v)


def test_state_vector_immutable():
    v = coherent_state(0.5, DIM10)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0


def test_scs_spec_validation():
    ScsMeasurementSpec(alpha=0.5, c0=1.0, c1=0.0)
    with pytest.raises(ValueError):
        ScsMeasurementSpec(alpha=0.5, c0=0.9, c1=0.9)
    with pytest.raises(ValueError):
        ScsMeasurementSpec(alpha=0.5, c0=-0.6, c1=0.8)
    with pytest.raises(ValueError):
        ScsMeasurementSpec(alpha=0.0, c0=1.0, c1=0.0)
    # grid dust just above 1 must clamp instead of producing NaN
    spec = ScsMeasurementSpec.from_c0sq(0.5, 1.0 + 2e-16)
    assert spec.c0 == 1.0 and spec.c1 == 0.0


def test_vacuum_and_coherent_amplitudes():
    vac = coherent_state(0.0, DIM10)
    assert vac.amps[0] == 1.0
    assert np.all(vac.amps[1:] == 0.0)

    c = coherent_state(0.5, DIM10)
    # closed form e^{-|alpha|^2/2}
    assert c.amps[0].real == pytest.approx(math.exp(-0.125), abs=1e-9)
    assert abs(np.sum(np.abs(c.amps) ** 2) - 1.0) < 1e-10


def test_coherent_tail_guard():
    with pytest.raises(CutoffTooSmallError):
        coherent_state(2.6, DIM10)
    # just inside: alpha^2 = 2.3 at n_max=20 leaves tail ~1e-13
    coherent_state(math.sqrt(2.3), DIM20)
    assert COHERENT_TAIL_TOL == 1e-8


def test_logfact_matches_gammaln():
    assert np.max(np.abs(_logfact(100) - gammaln(np.arange(101) + 1.0))) <= 1e-12


@pytest.mark.parametrize("n_max", [1, 10, 20, 40, 100])
def test_coherent_tail_guard_agrees_with_gammainc(n_max):
    # the guard's upper Poisson tail must accept or reject exactly where the
    # regularized gamma function P(n_max + 1, |alpha|^2) does, at the edge too
    edge = brentq(lambda lam: gammainc(n_max + 1, lam) - COHERENT_TAIL_TOL, 1e-9, 4.0 * n_max + 50.0)
    near = edge * np.array([1 - 1e-4, 1 + 1e-4])
    lams = np.concatenate([np.geomspace(1e-6, 3.0 * n_max + 30.0, 60), near])
    for lam in lams:
        for phase in (1.0, 1j, cmath.exp(2.1j)):
            alpha = math.sqrt(lam) * phase
            if gammainc(n_max + 1, lam) <= COHERENT_TAIL_TOL:
                coherent_state(alpha, n_max)
            else:
                with pytest.raises(CutoffTooSmallError):
                    coherent_state(alpha, n_max)


def test_non_finite_amplitudes_are_rejected():
    for alpha in (float("nan"), float("inf"), float("-inf"), complex("nan+1j"), complex(0.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            coherent_state(alpha, DIM20)
    with pytest.raises(ValueError, match="normalized"):
        StateVector(DIM10, np.full(11, np.nan, dtype=complex))


def test_overflowing_amplitudes_are_cut_off():
    # |alpha|^2 overflows above about 1.3e154; such an amplitude has all of its
    # mass beyond any cutoff and must fail like 1e154 does, not with OverflowError
    for alpha in (1e154, 1e200, -1e200, complex(1e200, 0.0), 1e308, complex(1e308, 1e308)):
        with pytest.raises(CutoffTooSmallError, match="tail mass 1.000e"):
            coherent_state(alpha, DIM20)


def test_coherent_overlap_oracle():
    # <alpha|-alpha> summed over the Fock series equals e^{-2 alpha^2}
    for alpha in np.linspace(0.1, 1.0, 10):
        ov = inner(coherent_state(alpha, DIM20), coherent_state(-alpha, DIM20))
        assert abs(ov.real - math.exp(-2 * alpha**2)) < 1e-9
        assert abs(ov.imag) < 1e-12


def test_number_state():
    n3 = number_state(3, TruncationDim(5))
    assert n3.amps[3] == 1.0 and np.sum(np.abs(n3.amps)) == 1.0
    for m in range(6):
        for n in range(6):
            ov = inner(number_state(m, TruncationDim(5)), number_state(n, TruncationDim(5)))
            assert ov == (1.0 if m == n else 0.0)
    with pytest.raises(ValueError):
        number_state(6, TruncationDim(5))
    with pytest.raises(ValueError):
        number_state(-1, TruncationDim(5))


def test_cat_basis_parity_support():
    plus, minus = cat_basis(0.5, DIM20)
    assert np.all(plus.amps[1::2] == 0.0)
    assert np.all(minus.amps[0::2] == 0.0)
    assert abs(inner(plus, minus)) < 1e-12
    assert plus.amps[0].real > 0 and plus.amps[0].imag == 0
    assert minus.amps[1].real > 0 and minus.amps[1].imag == 0


def test_cat_basis_is_shared_read_only():
    # a sweep asks for the same alpha many times and gets the same vectors,
    # so no caller may write to them
    plus, minus = cat_basis(0.5, DIM20)
    assert cat_basis(0.5, DIM20)[0] is plus
    for amps in (plus.amps, minus.amps):
        with pytest.raises(ValueError):
            amps[0] = 2.0
    assert cat_basis(0.7, DIM20)[0] is not plus


def test_cat_norm_factors_closed_form():
    for alpha in (0.3, 0.499, 0.5, 1.0):
        np_, nm = cat_norm_factors(alpha, DIM20)
        assert abs(np_**2 - 2 * (1 + math.exp(-2 * alpha**2))) < 1e-9
        assert abs(nm**2 - 2 * (1 - math.exp(-2 * alpha**2))) < 1e-9


def test_scs_projectors_structure():
    dim = DIM20
    plus, minus = cat_basis(0.499, dim)

    # c0 = 1 gives (C+, -C-) up to global phase
    spec = ScsMeasurementSpec(alpha=0.499, c0=1.0, c1=0.0, phi=0.3)
    pi0, pi1 = scs_projectors(spec, dim)
    assert np.max(np.abs(pi0.amps - plus.amps)) < 1e-12
    assert abs(abs(inner(pi1, minus)) - 1.0) < 1e-12

    # coefficient (Gram) check at c0^2 = 0.5, phi = pi/2
    spec = ScsMeasurementSpec.from_c0sq(0.499, 0.5, phi=math.pi / 2)
    pi0, pi1 = scs_projectors(spec, dim)
    assert abs(inner(pi0, pi1)) < 1e-12
    assert abs(inner(plus, pi0) - spec.c0) < 1e-12
    assert abs(inner(minus, pi0) - spec.c1 * np.exp(1j * spec.phi)) < 1e-12
    assert abs(inner(plus, pi1) - spec.c1 * np.exp(-1j * spec.phi)) < 1e-12
    assert abs(inner(minus, pi1) + spec.c0) < 1e-12


def test_displacement_identity_and_vacuum_action():
    D0 = displacement_operator(0.0, DIM20)
    assert np.all(D0.entries == np.eye(21))

    beta = 0.894
    D = displacement_operator(beta, DIM20)
    out = D.entries @ number_state(0, DIM20).amps
    ref = coherent_state(beta, DIM20)
    assert np.max(np.abs(out - ref.amps)) < 1e-8

    bc = 0.3 - 0.4j
    out = displacement_operator(bc, DIM20).entries @ number_state(0, DIM20).amps
    assert np.max(np.abs(out - coherent_state(bc, DIM20).amps)) < 1e-10


def test_displacement_against_genlaguerre():
    # independent route: direct associated-Laguerre matrix elements
    rng = np.random.default_rng(5)
    n_max = 16
    lf = gammaln(np.arange(n_max + 1) + 1.0)
    for _ in range(5):
        beta = complex(*rng.uniform(-0.5, 0.5, 2))
        D = displacement_operator(beta, TruncationDim(n_max)).entries
        x = abs(beta) ** 2
        ref = np.zeros_like(D)
        for m in range(n_max + 1):
            for n in range(n_max + 1):
                if m >= n:
                    val = (
                        math.exp(0.5 * (lf[n] - lf[m]) - 0.5 * x)
                        * beta ** (m - n)
                        * eval_genlaguerre(n, m - n, x)
                    )
                else:
                    val = (
                        math.exp(0.5 * (lf[m] - lf[n]) - 0.5 * x)
                        * (-np.conj(beta)) ** (n - m)
                        * eval_genlaguerre(m, n - m, x)
                    )
                ref[m, n] = val
        assert np.max(np.abs(D - ref)) < 1e-10


def test_displacement_against_generator_exponential():
    # second independent route: expm of the truncated generator at a much
    # larger cutoff, compared on a low block
    n_big = 40
    a = np.diag(np.sqrt(np.arange(1, n_big + 1)), k=1)
    beta = 0.7 + 0.2j
    E = scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)
    D = displacement_operator(beta, TruncationDim(n_big)).entries
    assert np.max(np.abs(D[:8, :8] - E[:8, :8])) < 1e-8


def test_displacement_phase_factorization():
    r, theta = 0.6, 0.9
    Dr = displacement_operator(r, DIM20).entries
    Drt = displacement_operator(r * np.exp(1j * theta), DIM20).entries
    m = np.arange(21)
    ramp = np.exp(1j * theta * (m[:, None] - m[None, :]))
    assert np.max(np.abs(Drt - ramp * Dr)) < 1e-12


def test_displacement_adjoint_is_inverse_displacement():
    beta = 0.4 + 0.25j
    D = displacement_operator(beta, DIM20).entries
    Dm = displacement_operator(-beta, DIM20).entries
    assert np.max(np.abs(D.conj().T - Dm)) < 1e-14


def test_displacement_unitarity_defect_envelope():
    # measured regression band at n_max=20 on the 10x10 guard block
    d09 = displacement_defect(0.9, DIM20)
    d10 = displacement_defect(1.0, DIM20)
    assert 1e-6 < d09 < 1e-5
    assert d09 == pytest.approx(7.537e-6, rel=0.05)
    assert d10 == pytest.approx(6.007e-5, rel=0.05)

    rng = np.random.default_rng(11)
    for _ in range(17):
        beta = rng.uniform(0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert displacement_defect(beta, DIM20) <= DISPLACEMENT_GUARD_TOL


def test_displacement_guard_rejects_oversized_amplitude():
    with pytest.raises(CutoffTooSmallError):
        displacement_operator(1.15, DIM20)
    # guard loosens with larger cutoff
    displacement_operator(1.15, TruncationDim(30))


def test_max_guarded_amplitude():
    r = max_guarded_amplitude(DIM20)
    assert r == pytest.approx(1.02, abs=1e-12)
    assert displacement_defect(r, DIM20) <= DISPLACEMENT_GUARD_TOL
    assert displacement_defect(r + 0.02, DIM20) > DISPLACEMENT_GUARD_TOL
    assert max_guarded_amplitude(TruncationDim(24)) > r


def test_inner_expect_basics():
    v = coherent_state(0.5, DIM10)
    assert inner(v, v).real == pytest.approx(1.0, abs=1e-12)
    assert expect(identity_operator(DIM10), v).real == pytest.approx(1.0, abs=1e-12)

    vac_proj = np.zeros((11, 11), dtype=complex)
    vac_proj[0, 0] = 1.0
    val = expect(FockOperator(DIM10, vac_proj), v)
    assert val.real == pytest.approx(math.exp(-0.25), abs=1e-9)
    assert abs(val.imag) < 1e-14

    with pytest.raises(DimensionMismatchError):
        inner(coherent_state(0.5, DIM10), coherent_state(0.5, DIM20))
    with pytest.raises(DimensionMismatchError):
        expect(identity_operator(DIM20), v)


def test_operator_predicates():
    h = identity_operator(DIM10)
    assert h.is_hermitian() and h.is_positive_semidefinite()
    skew = np.zeros((11, 11), dtype=complex)
    skew[0, 1] = 1.0
    assert not FockOperator(DIM10, skew).is_hermitian()
    neg = -np.eye(11, dtype=complex)
    assert not FockOperator(DIM10, neg).is_positive_semidefinite()
