"""Binary POVM constructors and detector-imperfection maps.

Three measurement families, all as two-element POVM pairs (pi0, pi1) on the
truncated Fock basis:

* displaced photon counting: displaced number projectors split by which
  target vector dominates each photon-number outcome;
* displaced on/off detection with efficiency / dark-count / visibility
  imperfections folded in;
* binary homodyne (quadrature above/below a threshold), whose element is
  evaluated in closed form from Hermite functions at the threshold.

Every displaced-counting element, ideal or lossy, partition or on/off,
shares one weight formula: pi0 = (1 - nu) D(beta) diag(B_eta m) D(beta)^dag,
where m marks the photon numbers counted as outcome 0 and B_eta is the
binomial loss map (``_counting_elements``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    FockOperator,
    TruncationDim,
    as_dim,
    _logfact,
)

__all__ = [
    "COMPLETENESS_TOL",
    "EIGENVALUE_FLOOR",
    "ENTRY_BOUND_TOL",
    "DetectorModel",
    "IDEAL_DETECTOR",
    "HomodyneSpec",
    "PovmPair",
    "homodyne_povm",
    "hermite_functions",
    "povm_entry_bound_check",
    "quadrature_interval_operator",
    "random_povm_pair",
]

COMPLETENESS_TOL = 1e-9
EIGENVALUE_FLOOR = 1e-9
HERMITICITY_TOL = 1e-10
ENTRY_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency eta, dark-count probability nu per pulse, interference
    visibility of the displacement operation."""

    eta: float = 1.0
    nu: float = 0.0
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.nu < 1.0:
            raise ValueError(f"nu must be in [0, 1), got {self.nu}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")

    @property
    def is_ideal(self) -> bool:
        return self.eta == 1.0 and self.nu == 0.0 and self.visibility == 1.0


IDEAL_DETECTOR = DetectorModel()


@dataclass(frozen=True)
class HomodyneSpec:
    """Quadrature threshold and local-oscillator phase of the binary
    homodyne measurement (convention: x = (a + a^dag)/sqrt(2)), as
    ``homodyne_povm`` takes them."""

    x_th: float
    lo_phase: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.x_th):
            raise ValueError("x_th must be finite")
        if not 0.0 <= self.lo_phase < 2 * math.pi:
            raise ValueError(f"lo_phase must be in [0, 2 pi), got {self.lo_phase}")


@dataclass(frozen=True, eq=False)
class PovmPair:
    """Two-outcome POVM (pi0, pi1)."""

    dim: TruncationDim
    pi0: FockOperator
    pi1: FockOperator

    def validate(self) -> dict:
        """Residuals of the pair invariants (completeness, hermiticity,
        positivity floor, entry bound).  Small is good."""
        res = _residuals(self.pi0.entries[None], self.pi1.entries[None])
        return {name: float(values[0]) for name, values in res.items()}

    @classmethod
    def checked(cls, dim, pi0, pi1) -> "PovmPair":
        dim = as_dim(dim)
        if not isinstance(pi0, FockOperator):
            pi0 = FockOperator(dim, pi0)
        if not isinstance(pi1, FockOperator):
            pi1 = FockOperator(dim, pi1)
        pair = cls(dim, pi0, pi1)
        (failure,) = _failures(pair.pi0.entries[None], pair.pi1.entries[None])
        if failure is not None:
            raise failure
        return pair


def _residuals(pi0: np.ndarray, pi1: np.ndarray) -> dict:
    """``PovmPair.validate`` of every pair of a stack (k, N, N), as (k,)
    arrays: the spectra of all 2k elements come from one ``eigvalsh`` call."""
    pairs = np.stack([pi0, pi1])
    adjoint = pairs.conj().swapaxes(-1, -2)
    return {
        "completeness": np.max(np.abs(pi0 + pi1 - np.eye(pi0.shape[-1])), axis=(-2, -1)),
        "hermiticity": np.max(np.abs(pairs - adjoint), axis=(0, -2, -1)),
        "min_eigenvalue": np.min(np.linalg.eigvalsh(0.5 * (pairs + adjoint))[..., 0], axis=0),
        "max_entry": np.max(np.abs(pairs), axis=(0, -2, -1)),
    }


def _failures(pi0: np.ndarray, pi1: np.ndarray) -> list:
    """For every pair of a stack of elements, None or the ValueError of the
    first invariant it breaks (``PovmPair.checked`` on a stack of one)."""
    return [
        ValueError(f"POVM pair not complete: residual {complete:.3e}") if complete > COMPLETENESS_TOL
        else ValueError(f"POVM element not Hermitian: residual {hermitian:.3e}") if hermitian > HERMITICITY_TOL
        else ValueError(f"POVM element not PSD: min eigenvalue {low:.3e}") if low < -EIGENVALUE_FLOOR
        else ValueError(f"POVM entry bound violated: max |theta| {top:.6f}") if top > 1.0 + ENTRY_BOUND_TOL
        else None
        for complete, hermitian, low, top in zip(*_residuals(pi0, pi1).values())
    ]


def povm_entry_bound_check(op: FockOperator) -> tuple[bool, float]:
    """Check |<m| op |n>| <= 1 for every entry of a POVM element.

    Also exercises the eigen-decomposition route: with op = sum_i l_i
    |u_i><u_i|, the triangle inequality gives the majorant
    sum_i l_i |u_i[m]| |u_i[n]| >= |<m|op|n>|, which is itself bounded by
    sqrt(<m|op|m><n|op|n>) <= 1 via Cauchy-Schwarz whenever the eigenvalues
    lie in [0, 1].
    """
    entries = op.entries
    max_theta = float(np.max(np.abs(entries)))
    evals, vecs = np.linalg.eigh(0.5 * (entries + entries.conj().T))
    weights = np.clip(evals, 0.0, None)
    mags = np.abs(vecs)
    majorant = (mags * weights) @ mags.T
    if max_theta > float(majorant.max()) + 1e-9:
        raise ArithmeticError("entry magnitude exceeded its eigenvector majorant")
    ok = max_theta <= 1.0 + ENTRY_BOUND_TOL and float(evals.min()) >= -ENTRY_BOUND_TOL
    return ok, max_theta


def _displaced_overlaps(targets, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|<pi_j|D|n>|^2 of each target amplitude array pi_j (..., N), for every
    photon number n, each row by its own (1, N) @ (N, N) product."""
    return tuple(np.abs((t.conj()[..., None, :] @ D)[..., 0, :]) ** 2 for t in targets)


def _partition(targets, D: np.ndarray) -> np.ndarray:
    """Photon numbers n with |<pi0|D|n>|^2 >= |<pi1|D|n>|^2 (ties go to 0)."""
    r0, r1 = _displaced_overlaps(targets, D)
    return r0 >= r1


def _k_log(k: np.ndarray, log_p: float) -> np.ndarray:
    """k log p, exactly 0 wherever k = 0, also for p = 0 (log_p = -inf)."""
    return k * log_p if log_p > -math.inf else np.where(k > 0, -math.inf, 0.0)


def _loss_log_map(eta: float, n_max: int) -> np.ndarray:
    """L[n, j] = log C(n, j) + j log eta + (n - j) log(1 - eta): the log of
    the chance that j of n photons survive loss eta.  L is -inf above the
    diagonal and wherever that chance is exactly 0 (j > 0 at eta = 0,
    j < n at eta = 1), so eta = 0 and 1 stay exact."""
    lf = _logfact(n_max)
    n, j = np.tril_indices(n_max + 1)
    log_eta = math.log(eta) if eta > 0.0 else -math.inf
    log_loss = math.log1p(-eta) if eta < 1.0 else -math.inf
    L = np.full((n_max + 1, n_max + 1), -math.inf)
    L[n, j] = lf[n] - lf[j] - lf[n - j] + _k_log(j, log_eta) + _k_log(n - j, log_loss)
    return L


@lru_cache(maxsize=32)
def _binomial_loss(eta: float, n_max: int) -> np.ndarray:
    """B[n, j] = C(n, j) eta^j (1 - eta)^(n - j) = exp(L[n, j]): the chance
    that j of n photons reach the counter."""
    B = np.exp(_loss_log_map(eta, n_max))
    B.setflags(write=False)
    return B


def _outcome_weights(keep: np.ndarray, eta: float) -> np.ndarray:
    """w = B_eta m: the probability that n photons arriving at a counter of
    efficiency eta give a photon number in the outcome-0 set ``keep`` (one
    mask, or a stack of them, each its own matrix-vector product)."""
    return (_binomial_loss(float(eta), keep.shape[-1] - 1) @ keep[..., None])[..., 0]


def _counting_elements(D: np.ndarray, targets=None, eta: float = 1.0, nu: float = 0.0) -> np.ndarray:
    """pi0 = (1 - nu) D diag(B_eta m) D^dag for a guarded D = D(beta) or a stack:
    displace, then count photons behind loss eta and dark counts nu.  m is the
    partition of the target amplitude arrays read off the same D, or the vacuum."""
    keep = _partition(targets, D) if targets is not None else np.arange(D.shape[-1]) == 0
    pi0 = (1.0 - nu) * ((D * _outcome_weights(keep, eta)[..., None, :]) @ D.conj().swapaxes(-1, -2))
    return 0.5 * (pi0 + pi0.conj().swapaxes(-1, -2))


def _counting_povm(D: np.ndarray, dim: TruncationDim, targets=None, eta: float = 1.0, nu: float = 0.0) -> PovmPair:
    """The checked pair (pi0, I - pi0) of ``_counting_elements`` for one D."""
    pi0 = _counting_elements(D, targets, eta, nu)
    return PovmPair.checked(dim, pi0, np.eye(dim.size) - pi0)


# ---------------------------------------------------------------------------
# binary homodyne


def hermite_functions(x, n_max: int) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_n_max evaluated at x
    (quadrature wavefunctions of the number states for x=(a+a^dag)/sqrt(2)).
    Returns shape (n_max+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = x * math.sqrt(2.0 / (n + 1)) * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def quadrature_interval_operator(x_lo, x_hi, dim) -> np.ndarray:
    """Matrix of integrals E_mn = int_{x_lo}^{x_hi} psi_m psi_n dx in the
    unrotated quadrature basis, in closed form for every window at once.

    Each end contributes int_x^inf psi_m psi_n.  With q_n = sqrt(2n)
    psi_{n-1} = psi_n' + x psi_n, the Wronskian psi_m q_n - psi_n q_m has
    derivative 2(m - n) psi_m psi_n, which gives every entry off the
    diagonal; on it, int_x^inf psi_0^2 = erfc(x)/2 and each step in n adds
    psi_n q_n / (2n).  The ends are clipped to [-W, W], beyond which every
    psi_m psi_n is below 1e-14.  ``x_lo`` and ``x_hi`` may be arrays; the
    result has shape ``np.broadcast(x_lo, x_hi).shape + (N, N)``.
    """
    from scipy.special import erfc

    dim = as_dim(dim)
    W = math.sqrt(2.0 * dim.n_max + 1.0) + 8.0
    lo, hi = np.broadcast_arrays(np.clip(x_lo, -W, W), np.clip(x_hi, -W, W))
    x = np.stack([lo, hi]).astype(float).ravel()
    psi = hermite_functions(x, dim.n_max).T
    n = np.arange(dim.size)
    q = np.zeros_like(psi)
    q[:, 1:] = np.sqrt(2.0 * n[1:]) * psi[:, :-1]
    gap = 2.0 * (n[:, None] - n[None, :])
    np.fill_diagonal(gap, 1.0)
    tails = (psi[:, None, :] * q[:, :, None] - psi[:, :, None] * q[:, None, :]) / gap
    tails[:, n, n] = 0.5 * erfc(x)[:, None] + np.cumsum(psi * q / np.maximum(2 * n, 1), axis=1)
    tails = tails.reshape((2,) + lo.shape + (dim.size, dim.size))
    return np.where((lo < hi)[..., None, None], tails[0] - tails[1], 0.0)


def homodyne_povm(spec: HomodyneSpec, dim) -> PovmPair:
    """Binary homodyne POVM: pi0 integrates the rotated quadrature
    projectors over [x_th, infinity).  Public as the assembled reference
    that the optimizer's closed-form homodyne score is checked against."""
    dim = as_dim(dim)
    E = quadrature_interval_operator(spec.x_th, np.inf, dim).astype(complex)
    if spec.lo_phase != 0.0:
        ph = np.exp(1j * np.arange(dim.size) * spec.lo_phase)
        E = E * np.outer(ph, ph.conj())
    pi1 = np.eye(dim.size) - E
    return PovmPair.checked(dim, E, pi1)


def random_povm_pair(dim, rng: np.random.Generator) -> PovmPair:
    """Random physical two-outcome POVM: a PSD splitting of the identity
    with Haar-ish eigenbasis and uniform eigenvalues in [0, 1]."""
    dim = as_dim(dim)
    N = dim.size
    G = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    Q, _ = np.linalg.qr(G)
    w = rng.uniform(0.0, 1.0, size=N)
    pi0 = (Q * w) @ Q.conj().T
    pi0 = 0.5 * (pi0 + pi0.conj().T)
    pi1 = np.eye(N) - pi0
    return PovmPair.checked(dim, pi0, pi1)
