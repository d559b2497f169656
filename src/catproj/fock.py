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
    "AMPLITUDE_CEILING",
    "AMPLITUDE_STEP",
    "COHERENT_TAIL_TOL",
    "DISPLACEMENT_GUARD_TOL",
    "MIN_ALPHA",
    "NORM_TOL",
    "CutoffTooSmallError",
    "DimensionMismatchError",
    "TruncationDim",
    "StateVector",
    "FockOperator",
    "ScsMeasurementSpec",
    "as_dim",
    "coherent_state",
    "cat_basis",
    "cat_norm_squares",
    "scs_basis_project",
    "scs_projectors",
    "displacement_operator",
    "displacement_defect",
    "max_guarded_amplitude",
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

# amplitudes of the guard scan and of the displacement optimizer's polar grid
AMPLITUDE_STEP = 0.02
AMPLITUDE_CEILING = 2.5

# Constructor tolerance on state normalization.
NORM_TOL = 1e-9

# Smallest cat amplitude: the closed forms the searches run on lose about
# 5e-17 / alpha^2 to cancellation, 5e-9 at 1e-4 against the optimizer's
# 1e-7 pin, and all of F by alpha = 1e-8.
MIN_ALPHA = 1e-4


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
        if not self.alpha >= MIN_ALPHA:
            raise ValueError(f"alpha must be at least MIN_ALPHA = {MIN_ALPHA:g}, got {self.alpha}")
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
        complementary coefficient real.  Beyond 1e-12 of [0, 1] it raises.
        """
        if not -1e-12 <= c0sq <= 1.0 + 1e-12:  # also rejects NaN
            raise ValueError(f"c0sq must lie in [0, 1], got {c0sq!r}")
        c0sq = min(max(c0sq, 0.0), 1.0)
        return cls(alpha=alpha, c0=math.sqrt(c0sq), c1=math.sqrt(1.0 - c0sq), phi=phi)


@lru_cache(maxsize=None)
def _logfact(n_max: int) -> np.ndarray:
    lf = np.array([math.lgamma(n + 1) for n in range(n_max + 1)])
    lf.setflags(write=False)
    return lf


def _coherent_magnitudes(alpha: complex, dim: TruncationDim) -> np.ndarray:
    """|<n|alpha>| = e^{-|alpha|^2/2} |alpha|^n / sqrt(n!) for n <= n_max.

    Rejects a non-finite amplitude, and one whose photon-number tail beyond
    n_max, 1 - sum_{n <= n_max} e^{-|alpha|^2} |alpha|^{2n}/n! (the upper
    Poisson tail, DLMF 8.4.10), exceeds COHERENT_TAIL_TOL.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    n = np.arange(dim.size)
    if alpha == 0:
        return (n == 0).astype(float)
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
    return mag


def coherent_state(alpha: complex, dim) -> StateVector:
    """Truncated coherent state |alpha>, renormalized on the cutoff basis,
    behind the checks of ``_coherent_magnitudes``."""
    dim = as_dim(dim)
    amps = _coherent_magnitudes(alpha, dim) * np.exp(1j * np.arange(dim.size) * np.angle(alpha))
    amps /= np.linalg.norm(amps)
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


def cat_norm_squares(alpha: float) -> tuple[float, float]:
    """Squared norms (N+^2, N-^2) = 2 (1 +- e^{-2 alpha^2}) of the untruncated
    cat vectors |alpha> +- |-alpha>; N-^2 through ``expm1``, which keeps its
    digits at small alpha, where 1 - e^{-2 alpha^2} cancels."""
    x = 2.0 * alpha**2
    return 2.0 + 2.0 * math.exp(-x), -2.0 * math.expm1(-x)


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


def scs_basis_project(op: FockOperator, alpha: float) -> np.ndarray:
    """2x2 block <C_k| op |C_l> of a Fock-space operator in the cat basis
    of its own cutoff."""
    plus, minus = cat_basis(alpha, op.dim)
    basis = np.stack([plus.amps, minus.amps])
    return basis.conj() @ op.entries @ basis.T


@lru_cache(maxsize=None)
def _laguerre_table(n_max: int) -> tuple[np.ndarray, ...]:
    """The constants of ``_displacement_matrix`` at one cutoff, built on
    first use and read-only: the recurrence coefficients 2k - 1 + d and
    k - 1 + d as (N, N) float tables indexed [k, d], the lower-triangle
    indices (m, n), 0.5 (log n! - log m!), the exponent m - n and the mask
    of the entries below the diagonal, m > n."""
    N = n_max + 1
    k = np.arange(N)[:, None]
    d = np.arange(N)
    m, n = np.tril_indices(N)
    lf = _logfact(n_max)
    table = (
        (2 * k - 1 + d).astype(float),
        (k - 1 + d).astype(float),
        m,
        n,
        0.5 * (lf[n] - lf[m]),
        m - n,
        m > n,
    )
    for a in table:
        a.setflags(write=False)
    return table


@np.errstate(over="ignore", invalid="ignore")
def _displacement_matrix(beta, dim: TruncationDim) -> np.ndarray:
    """<m|D(beta)|n> from the closed-form associated-Laguerre expression
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).

    For m >= n:  <m|D|n> = sqrt(n!/m!) beta^{m-n} e^{-|beta|^2/2} L_n^{(m-n)}(|beta|^2)
    and <n|m> entries follow from D(-beta)^T symmetry.  ``beta`` may be a
    scalar or an array of amplitudes; the result has shape
    ``np.shape(beta) + (N, N)``.  One stable three-term recurrence in n
    generates the Laguerre values of every amplitude and every diagonal:
    the cutoff's constants come from ``_laguerre_table``, 2k - 1 + d - x is
    formed for every k in one array operation, and each step is then two
    products, a difference and a division, in place.  An amplitude far
    beyond the cutoff overflows to inf or NaN entries without a warning;
    the unitarity guard rejects such a matrix.
    """
    beta = np.asarray(beta, dtype=complex)
    N = dim.size
    step, weight, m, n, half, power, up = _laguerre_table(dim.n_max)
    b = beta.reshape(-1, 1)
    x = np.abs(b) ** 2
    # lag[:, k, d] = L_k^{(d)}(x); row k holds 2k - 1 + d - x until step k
    lag = step - x[:, :, None]
    lag[:, 0] = 1.0
    for k in range(2, N):
        row = lag[:, k]
        row *= lag[:, k - 1]
        row -= weight[k] * lag[:, k - 2]
        row /= k
    base = np.exp(half - 0.5 * x)
    lag = lag[:, n, power]
    D = np.zeros((b.shape[0], N, N), dtype=complex)
    D[:, m, n] = base * b**power * lag
    D[:, n[up], m[up]] = base[:, up] * (-np.conj(b)) ** power[up] * lag[:, up]
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


def _guarded_displacements(betas, dim: TruncationDim) -> np.ndarray:
    """The stack of D(beta) over a list of amplitudes, each behind the
    displacement guard: the first beta whose unitarity defect exceeds
    DISPLACEMENT_GUARD_TOL raises CutoffTooSmallError."""
    Ds = _displacement_matrix(np.array(betas, dtype=complex), dim)
    for beta, defect in zip(betas, _unitarity_defect(Ds, dim.n_max)):
        if not defect <= DISPLACEMENT_GUARD_TOL:  # also rejects NaN
            raise CutoffTooSmallError(
                f"displacement {beta!r} has unitarity defect {defect:.3e} on the "
                f"(n_max//2)^2 guard block at n_max={dim.n_max} "
                f"(tolerance {DISPLACEMENT_GUARD_TOL:.0e})"
            )
    return Ds


def displacement_operator(beta: complex, dim) -> FockOperator:
    """Displacement D(beta) on the truncated basis.

    Raises CutoffTooSmallError when the unitarity defect on the guarded
    sub-block exceeds DISPLACEMENT_GUARD_TOL, i.e. when the truncation is
    too tight for this amplitude.
    """
    dim = as_dim(dim)
    (D,) = _guarded_displacements([beta], dim)
    return FockOperator(dim, D)


@lru_cache(maxsize=None)
def max_guarded_amplitude(dim) -> float:
    """Largest multiple of ``AMPLITUDE_STEP`` up to ``AMPLITUDE_CEILING`` that
    passes the displacement guard at this truncation.  Bounded optimizer
    domains use it so they never request operators the guard would reject."""
    dim = as_dim(dim)
    ks = np.arange(1, int(AMPLITUDE_CEILING / AMPLITUDE_STEP) + 2)
    radii = ks[ks * AMPLITUDE_STEP <= AMPLITUDE_CEILING + 1e-12] * AMPLITUDE_STEP
    defects = _unitarity_defect(_displacement_matrix(radii, dim), dim.n_max)
    failed = np.flatnonzero(defects > DISPLACEMENT_GUARD_TOL)
    passing = failed[0] if failed.size else radii.size
    return float(radii[passing - 1]) if passing else 0.0


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    _require_same_dim(a.dim, b.dim)
    return complex(np.vdot(a.amps, b.amps))


def expect(op: FockOperator, s: StateVector) -> complex:
    """<s|op|s>; real within 1e-10 whenever op is Hermitian."""
    _require_same_dim(op.dim, s.dim)
    return complex(np.vdot(s.amps, op.entries @ s.amps))

