"""Truncated Fock-space states and operators.

Everything in this package lives in the span of |0>..|n_max>.  States are
dense complex amplitude vectors, operators are dense complex matrices.
Values are immutable after construction (arrays are marked read-only), so
they can be shared freely.

Conventions fixed here and used everywhere else:

* displacement D(beta) = exp(beta a^dag - beta* a), so D(beta)|0> = |beta>
  with amplitudes e^{-|beta|^2/2} beta^n / sqrt(n!);
* cat vectors |C+-> = (|alpha> +- |-alpha>)/N_pm carry exactly alternating
  parity support, and the lowest nonzero Fock amplitude is made real
  positive so vector equality is testable;
* factorials are handled as log-factorials throughout (no overflow up to
  any practical cutoff).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "COHERENT_TAIL_TOL",
    "DISPLACEMENT_GUARD_TOL",
    "NORM_TOL",
    "CutoffTooSmallError",
    "DimensionMismatchError",
    "TruncationDim",
    "StateVector",
    "FockOperator",
    "ScsMeasurementSpec",
    "as_dim",
    "coherent_state",
    "number_state",
    "cat_basis",
    "cat_norm_factors",
    "scs_projectors",
    "displacement_operator",
    "displacement_defect",
    "max_guarded_amplitude",
    "identity_operator",
    "inner",
    "expect",
]

# Maximum photon-number tail mass allowed outside the truncated basis when
# embedding a coherent amplitude.
COHERENT_TAIL_TOL = 1e-8

# Maximum unitarity defect of D(beta)^dag D(beta) - I on the guarded
# upper-left (n_max//2)^2 block.  Measured defects at n_max=20 grow from
# ~8e-6 at |beta|=0.9 to ~6e-5 at |beta|=1.0, so a useful guard has to sit
# above that envelope; 1e-4 admits every amplitude the optimizers need
# while still rejecting clearly under-truncated requests.
DISPLACEMENT_GUARD_TOL = 1e-4

# Constructor tolerance on state normalization.
NORM_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands live on different truncated spaces."""


class CutoffTooSmallError(ValueError):
    """The requested amplitude does not fit in the truncated space."""


@dataclass(frozen=True)
class TruncationDim:
    """Photon-number cutoff; the basis is |0>..|n_max>, dimension n_max+1."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def size(self) -> int:
        return self.n_max + 1


def as_dim(dim) -> TruncationDim:
    """Accept either a TruncationDim or a bare integer n_max."""
    if isinstance(dim, TruncationDim):
        return dim
    return TruncationDim(dim)


def _require_same_dim(a: TruncationDim, b: TruncationDim) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: n_max {a.n_max} vs {b.n_max}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense normalized ket on the truncated basis: the constructor enforces
    sum |c_n|^2 = 1 within ``NORM_TOL``."""

    dim: TruncationDim
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=complex, copy=True)
        if amps.shape != (self.dim.size,):
            raise DimensionMismatchError(
                f"amplitude vector has shape {amps.shape}, expected ({self.dim.size},)"
            )
        nrm = float(np.sum(np.abs(amps) ** 2))
        if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(f"state is not normalized: norm^2 = {nrm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense operator (matrix of theta_mn entries) on the truncated basis."""

    dim: TruncationDim
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=complex, copy=True)
        if entries.shape != (self.dim.size, self.dim.size):
            raise DimensionMismatchError(
                f"operator has shape {entries.shape}, expected "
                f"({self.dim.size}, {self.dim.size})"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return float(np.max(np.abs(self.entries - self.entries.conj().T))) <= tol

    def is_positive_semidefinite(self, tol: float = 1e-9) -> bool:
        # eigvalsh reads the lower triangle; symmetrize first so the test is
        # meaningful for almost-Hermitian input too.
        h = 0.5 * (self.entries + self.entries.conj().T)
        return float(np.linalg.eigvalsh(h)[0]) >= -tol


@dataclass(frozen=True)
class ScsMeasurementSpec:
    """Target projection basis: pi0 = c0|C+> + c1 e^{i phi}|C->.

    c0, c1 are real non-negative with c0^2 + c1^2 = 1; sign freedom is
    absorbed into the relative phase phi.
    """

    alpha: float
    c0: float
    c1: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.c0 < 0 or self.c1 < 0:
            raise ValueError("c0 and c1 must be non-negative (sign goes into phi)")
        if abs(self.c0**2 + self.c1**2 - 1.0) > 1e-12:
            raise ValueError(
                f"c0^2 + c1^2 = {self.c0 ** 2 + self.c1 ** 2!r}, expected 1 within 1e-12"
            )

    @classmethod
    def from_c0sq(cls, alpha: float, c0sq: float, phi: float = 0.0) -> "ScsMeasurementSpec":
        """Build a spec from the population c0^2, clamping float-grid dust.

        Grid arithmetic can produce c0sq = 1 + 2e-16; the clamp keeps the
        complementary coefficient real.
        """
        c0sq = min(max(float(c0sq), 0.0), 1.0)
        return cls(alpha=alpha, c0=math.sqrt(c0sq), c1=math.sqrt(1.0 - c0sq), phi=phi)

    @property
    def c0sq(self) -> float:
        return self.c0**2


@lru_cache(maxsize=None)
def _logfact(n_max: int) -> np.ndarray:
    lf = np.array([math.lgamma(n + 1) for n in range(n_max + 1)])
    lf.setflags(write=False)
    return lf


def coherent_state(alpha: complex, dim) -> StateVector:
    """Truncated coherent state |alpha>, renormalized on the cutoff basis.

    Rejects a non-finite amplitude, and one whose photon-number tail beyond
    n_max, 1 - sum_{n <= n_max} e^{-|alpha|^2} |alpha|^{2n}/n! (the upper
    Poisson tail, DLMF 8.4.10), exceeds COHERENT_TAIL_TOL.
    """
    dim = as_dim(dim)
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    amps = np.zeros(dim.size, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
    else:
        n = np.arange(dim.size)
        try:
            lam = abs(alpha) ** 2
        except OverflowError:  # |alpha|^2 beyond the float range: no mass within any cutoff
            tail = 1.0
        else:
            mag = np.exp(n * math.log(abs(alpha)) - 0.5 * lam - 0.5 * _logfact(dim.n_max))
            tail = 1.0 - float(mag @ mag)
        if not tail <= COHERENT_TAIL_TOL:
            raise CutoffTooSmallError(
                f"coherent amplitude {alpha!r} leaves tail mass {tail:.3e} above "
                f"n_max={dim.n_max} (tolerance {COHERENT_TAIL_TOL:.0e})"
            )
        amps = mag * np.exp(1j * n * np.angle(alpha))
        amps /= np.linalg.norm(amps)
    return StateVector(dim, amps)


def number_state(n: int, dim) -> StateVector:
    dim = as_dim(dim)
    if not 0 <= n <= dim.n_max:
        raise ValueError(f"photon number {n} outside [0, {dim.n_max}]")
    amps = np.zeros(dim.size, dtype=complex)
    amps[n] = 1.0
    return StateVector(dim, amps)


def _fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the lowest-index nonzero amplitude is real positive."""
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    if nz.size:
        v = v * np.exp(-1j * np.angle(v[nz[0]]))
    return v


@lru_cache(maxsize=1)  # a sweep asks for one alpha many times in a row
def cat_basis(alpha: float, dim) -> tuple[StateVector, StateVector]:
    """Even/odd cat vectors |C+-> = (|alpha> +- |-alpha>)/N_pm.

    The returned vectors have exactly alternating zero support (the
    vanishing parity components are zeroed, not just small).
    """
    if not (np.isrealobj(alpha) or np.imag(alpha) == 0) or not alpha > 0:
        raise ValueError(f"cat amplitude must be real positive, got {alpha!r}")
    dim = as_dim(dim)
    cp = coherent_state(float(alpha), dim).amps
    # for real alpha the -alpha vector is exactly the sign-alternated one;
    # building it this way keeps the cat amplitudes exactly real
    signs = np.where(np.arange(dim.size) % 2 == 0, 1.0, -1.0)
    cm = cp * signs
    plus = cp + cm
    minus = cp - cm
    plus[1::2] = 0.0
    minus[0::2] = 0.0
    plus = _fix_global_phase(plus / np.linalg.norm(plus))
    minus = _fix_global_phase(minus / np.linalg.norm(minus))
    return StateVector(dim, plus), StateVector(dim, minus)


def cat_norm_factors(alpha: float, dim) -> tuple[float, float]:
    """Normalization factors (N+, N-) of the truncated cat vectors.

    N_pm^2 = 2 (1 +- Re<alpha|-alpha>) evaluated with the truncated,
    renormalized coherent vectors.
    """
    dim = as_dim(dim)
    ov = inner(coherent_state(alpha, dim), coherent_state(-alpha, dim)).real
    return math.sqrt(2.0 * (1.0 + ov)), math.sqrt(2.0 * (1.0 - ov))


def scs_projectors(spec: ScsMeasurementSpec, dim) -> tuple[StateVector, StateVector]:
    """Orthonormal target vectors

    pi0 = c0|C+> + c1 e^{+i phi}|C->,
    pi1 = c1 e^{-i phi}|C+> - c0|C->.
    """
    dim = as_dim(dim)
    plus, minus = cat_basis(spec.alpha, dim)
    pi0 = spec.c0 * plus.amps + spec.c1 * np.exp(1j * spec.phi) * minus.amps
    pi1 = spec.c1 * np.exp(-1j * spec.phi) * plus.amps - spec.c0 * minus.amps
    return StateVector(dim, pi0), StateVector(dim, pi1)


@np.errstate(over="ignore", invalid="ignore")
def _displacement_matrix(beta, dim: TruncationDim) -> np.ndarray:
    """<m|D(beta)|n> from the closed-form associated-Laguerre expression
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).

    For m >= n:  <m|D|n> = sqrt(n!/m!) beta^{m-n} e^{-|beta|^2/2} L_n^{(m-n)}(|beta|^2)
    and <n|m> entries follow from D(-beta)^T symmetry.  ``beta`` may be a
    scalar or an array of amplitudes; the result has shape
    ``np.shape(beta) + (N, N)``.  One stable three-term recurrence in n
    generates the Laguerre values of every amplitude and every diagonal.
    An amplitude far beyond the cutoff overflows to inf or NaN entries
    without a warning; the unitarity guard rejects such a matrix.
    """
    beta = np.asarray(beta, dtype=complex)
    N = dim.size
    b = beta.reshape(-1, 1)
    x = np.abs(b) ** 2
    d = np.arange(N)
    # lag[:, k, d] = L_k^{(d)}(x)
    lag = np.empty((b.shape[0], N, N))
    lag[:, 0] = 1.0
    if N > 1:
        lag[:, 1] = 1.0 + d - x
    for k in range(2, N):
        lag[:, k] = ((2 * k - 1 + d - x) * lag[:, k - 1] - (k - 1 + d) * lag[:, k - 2]) / k
    m, n = np.tril_indices(N)
    lf = _logfact(dim.n_max)
    base = np.exp(0.5 * (lf[n] - lf[m]) - 0.5 * x)
    lag = lag[:, n, m - n]
    D = np.zeros((b.shape[0], N, N), dtype=complex)
    D[:, m, n] = base * b ** (m - n) * lag
    up = m > n
    D[:, n[up], m[up]] = (base * (-np.conj(b)) ** (m - n) * lag)[:, up]
    return D.reshape(beta.shape + (N, N))


def _unitarity_defect(D: np.ndarray, n_max: int) -> np.ndarray:
    """Max |D^dag D - I| on the upper-left (n_max//2)^2 block of each
    matrix in a stack."""
    k = max(1, n_max // 2)
    cols = D[..., :k]
    block = cols.conj().swapaxes(-1, -2) @ cols - np.eye(k)
    return np.max(np.abs(block), axis=(-2, -1))


def displacement_defect(beta: complex, dim) -> float:
    """Max |D^dag D - I| on the upper-left (n_max//2)^2 block."""
    dim = as_dim(dim)
    return float(_unitarity_defect(_displacement_matrix(beta, dim), dim.n_max))


def displacement_operator(beta: complex, dim) -> FockOperator:
    """Displacement D(beta) on the truncated basis.

    Raises CutoffTooSmallError when the unitarity defect on the guarded
    sub-block exceeds DISPLACEMENT_GUARD_TOL, i.e. when the truncation is
    too tight for this amplitude.
    """
    dim = as_dim(dim)
    D = _displacement_matrix(beta, dim)
    defect = float(_unitarity_defect(D, dim.n_max))
    if not defect <= DISPLACEMENT_GUARD_TOL:  # also rejects NaN
        raise CutoffTooSmallError(
            f"displacement {beta!r} has unitarity defect {defect:.3e} on the "
            f"(n_max//2)^2 guard block at n_max={dim.n_max} "
            f"(tolerance {DISPLACEMENT_GUARD_TOL:.0e})"
        )
    return FockOperator(dim, D)


@lru_cache(maxsize=None)
def _max_guarded_amplitude_cached(n_max: int, step: float) -> float:
    ks = np.arange(1, int(2.5 / step) + 2)
    radii = ks[ks * step <= 2.5 + 1e-12] * step
    defects = _unitarity_defect(_displacement_matrix(radii, TruncationDim(n_max)), n_max)
    failed = np.flatnonzero(defects > DISPLACEMENT_GUARD_TOL)
    passing = failed[0] if failed.size else radii.size
    return float(radii[passing - 1]) if passing else 0.0


def max_guarded_amplitude(dim, step: float = 0.02) -> float:
    """Largest grid amplitude (multiples of ``step``) passing the
    displacement guard at this truncation.  Bounded optimizer domains use
    this so they never request operators the guard would reject."""
    dim = as_dim(dim)
    return _max_guarded_amplitude_cached(dim.n_max, float(step))


def identity_operator(dim) -> FockOperator:
    dim = as_dim(dim)
    return FockOperator(dim, np.eye(dim.size, dtype=complex))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    _require_same_dim(a.dim, b.dim)
    return complex(np.vdot(a.amps, b.amps))


def expect(op: FockOperator, s: StateVector) -> complex:
    """<s|op|s>; real within 1e-10 whenever op is Hermitian."""
    _require_same_dim(op.dim, s.dim)
    return complex(np.vdot(s.amps, op.entries @ s.amps))

