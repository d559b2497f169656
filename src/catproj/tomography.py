"""Reconstruction of a binary measurement in the 2-D cat-state basis.

The outcome statistics of coherent probes ``|+alpha>``, ``|-alpha>`` and
``|+-i*gamma_k>`` determine the POVM restricted to span{|C+>, |C->}.  The
imaginary-probe rows enter through two polynomial series in the probe
amplitude: the odd coefficients (antisymmetric combination of the ``+-i``
rates) recover the imaginary parts of the Fock off-diagonals, while the even
coefficients (symmetric combination) recover the real parts needed to
synthesize an even-cat probe.  One routine per step serves both series,
selected by ``parity``; each series is fitted inside the box that the entry
bound on POVM elements puts on its coefficients, by an exact solve when the
fit lies inside the box and by bounded-variable least squares (BVLS, Stark &
Parker, Comput. Stat. 10, 129 (1995); scipy's, imported only then) otherwise.
The 2x2 pair is then reconstructed from four informationally complete probe
states, closed form first: the linear inversion of the four rates is the
likelihood maximum whenever it is physical.  Only an optimum on the boundary
of 0 <= pi0 <= I runs an iteration, a log-det barrier Newton solve whose
result is certified by a duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockOperator,
    ScsMeasurementSpec,
    TruncationDim,
    as_dim,
    cat_norm_factors,
)

COMPLETENESS_TOL_2D = 1e-6
EIGENVALUE_FLOOR_2D = 1e-9
_BVLS_MAX_ITER = 100
MLE_PROB_FLOOR = 1e-12
MLE_GAP_TOL = 1e-12
MLE_MAX_STEPS = 50
ENTRY_BOUND_TOL = 1e-9

_AMPLITUDE_MATCH_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A solver exhausted its iteration budget or could not certify its result."""


@dataclass(frozen=True)
class ProbeSet:
    """Coherent probe amplitudes: the cat amplitude and the |+-i*gamma> list."""

    alpha: float
    gammas: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not all(math.isfinite(v) for v in (self.alpha, *self.gammas)):
            raise ValueError("probe amplitudes must be finite")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if len(self.gammas) < 1:
            raise ValueError("at least one gamma probe amplitude is required")
        if any(not g > 0 for g in self.gammas):
            raise ValueError("gamma amplitudes must be > 0")
        if len(set(self.gammas)) != len(self.gammas):
            raise ValueError("gamma amplitudes must be distinct")

    @property
    def k(self) -> int:
        return len(self.gammas)

    def amplitudes(self) -> tuple:
        """Probe amplitudes in canonical row order: +a, -a, +ig_1, -ig_1, ..."""
        rows = [complex(self.alpha), complex(-self.alpha)]
        for g in self.gammas:
            rows.append(complex(0.0, g))
            rows.append(complex(0.0, -g))
        return tuple(rows)


@dataclass(frozen=True)
class ClickTable:
    """Per-probe outcome counts.  Rows follow ``ProbeSet.amplitudes`` order.

    Counts are stored as floats so that exact-probability tables (rates
    times a nominal shot number) can flow through the same code path as
    sampled integers.
    """

    probe_amplitudes: tuple
    counts0: np.ndarray
    counts1: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probe_amplitudes", tuple(complex(a) for a in self.probe_amplitudes))
        for name in ("counts0", "counts1", "shots"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.probe_amplitudes)
        if n == 0:
            raise ValueError("click table is empty: it has no probe rows")
        if not (self.counts0.shape == self.counts1.shape == self.shots.shape == (n,)):
            raise ValueError("counts0, counts1 and shots must be 1-D with one row per probe")
        finite = np.isfinite([self.counts0, self.counts1, self.shots]).all()
        if not (finite and np.isfinite(self.probe_amplitudes).all()):
            raise ValueError("counts, shots and probe amplitudes must be finite")
        if np.any(self.counts0 < 0) or np.any(self.counts1 < 0):
            raise ValueError("counts must be non-negative")
        if np.any(self.shots <= 0):
            raise ValueError("every probe needs a positive number of shots")
        resid = np.max(np.abs(self.counts0 + self.counts1 - self.shots))
        if resid > 1e-6 * max(1.0, float(self.shots.max())):
            raise ValueError(f"outcome counts do not sum to shots (residual {resid:g})")

    @classmethod
    def from_rates(cls, probe_amplitudes, rates0, shots) -> "ClickTable":
        rates0 = np.asarray(rates0, dtype=float)
        shots = np.broadcast_to(np.asarray(shots, dtype=float), rates0.shape).copy()
        if np.any(rates0 < -1e-12) or np.any(rates0 > 1 + 1e-12):
            raise ValueError("rates must lie in [0, 1]")
        rates0 = np.clip(rates0, 0.0, 1.0)
        return cls(tuple(probe_amplitudes), rates0 * shots, (1.0 - rates0) * shots, shots)

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        return self.counts0 / self.shots, self.counts1 / self.shots

    def scaled(self, factor: float) -> "ClickTable":
        """Same table with every count (and shot) multiplied by ``factor``."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        return ClickTable(
            self.probe_amplitudes,
            self.counts0 * factor,
            self.counts1 * factor,
            self.shots * factor,
        )

    def row_index(self, amplitude: complex) -> int:
        for i, a in enumerate(self.probe_amplitudes):
            if abs(a - amplitude) < _AMPLITUDE_MATCH_TOL:
                return i
        raise KeyError(f"no probe row at amplitude {amplitude!r}")


def _orders(count: int, parity: int) -> np.ndarray:
    """Orders parity, parity + 2, ... of the first ``count`` series terms."""
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 (even series) or 1 (odd series), got {parity!r}")
    return 2 * np.arange(count) + parity


def series_bound(order: int) -> float:
    """Box bound on the series coefficient of the given order: odd orders
    belong to the odd series, even orders to the even one."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return float(sum(1.0 / math.sqrt(math.factorial(m) * math.factorial(order - m))
                     for m in range(order % 2, order + 1)))


@dataclass(frozen=True)
class PhiVector:
    """Series coefficients of one outcome: [F_1, F_3, ..., F_{2K-1}] for the
    odd series (``parity`` 1) or [F_0, F_2, ..., F_{2K-2}] for the even one."""

    values: np.ndarray
    parity: int = 1

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("expected a non-empty 1-D coefficient vector")
        for order, v in zip(_orders(vals.size, self.parity), vals):
            bound = series_bound(int(order))
            if abs(v) > bound + 1e-9:
                raise ValueError(
                    f"coefficient of order {order} is {v!r}, beyond its bound {bound!r}"
                )

    def __len__(self) -> int:
        return self.values.size


def gamma_matrix(probes: ProbeSet, parity: int = 1) -> np.ndarray:
    """K x K design matrix of one series: columns -g, g^3, -g^5, ... for the
    odd series, 1, g^2, g^4, ... for the even one."""
    g = np.asarray(probes.gammas)[:, None]
    signs = (-1.0) ** ((np.arange(probes.k)[None, :] + 1) * parity)
    return signs * g ** _orders(probes.k, parity)[None, :]


def solve_phi(f: np.ndarray, probes: ProbeSet, parity: int = 1) -> PhiVector:
    """Recover one outcome's series coefficients from its statistic: the
    least-squares fit inside the coefficient box.

    The design matrix is square and, for distinct positive gammas,
    nonsingular, so its exact solve is the zero-residual fit; inside the box
    that is the answer.  Only a fit outside the box imports and runs BVLS
    (``scipy.optimize.lsq_linear``), exact after finitely many steps."""
    f = np.asarray(f, dtype=float)
    if f.shape != (probes.k,):
        raise ValueError(f"expected {probes.k} statistics, got shape {f.shape}")
    bounds = np.array([series_bound(int(o)) for o in _orders(probes.k, parity)])
    mat = gamma_matrix(probes, parity)
    try:
        exact = np.linalg.solve(mat, f)
    except np.linalg.LinAlgError:
        exact = None
    if exact is not None and np.all(np.abs(exact) <= bounds):
        return PhiVector(exact, parity)
    from scipy.optimize import lsq_linear

    res = lsq_linear(mat, f, bounds=(-bounds, bounds), method="bvls", max_iter=_BVLS_MAX_ITER)
    if res.status == 0:
        raise ConvergenceError(
            f"box-constrained series solve did not finish within {_BVLS_MAX_ITER} iterations"
        )
    return PhiVector(res.x, parity)


def f_statistic(clicks: ClickTable, probes: ProbeSet, parity: int = 1) -> np.ndarray:
    """Probe statistic of one series, shape (2, K): one row per outcome.

    f_k = (rate at +i*gamma_k -+ rate at -i*gamma_k) / (2 exp(-gamma_k^2)),
    the difference for the odd series and the sum for the even one.
    """
    _orders(probes.k, parity)  # rejects a parity other than 0 or 1
    sign = -1.0 if parity else 1.0
    rates = np.stack(clicks.rates())
    out = np.empty((2, probes.k))
    for k, g in enumerate(probes.gammas):
        ip = clicks.row_index(complex(0.0, g))
        im = clicks.row_index(complex(0.0, -g))
        out[:, k] = (rates[:, ip] + sign * rates[:, im]) / (2.0 * math.exp(-g * g))
    return out


def imaginary_probe_expectation(
    phi: PhiVector,
    alpha: float,
    real_probe_expectations: tuple[float, float],
    sign: int = +1,
) -> tuple[float, float]:
    """Expectation for the probe (|alpha> + sign*i |-alpha>)/sqrt(2).

    Assembles the decomposition: the mean of the measured rates at ``+-alpha``
    plus/minus half the odd series ``2 exp(-alpha^2) sum_l alpha^(2l+1) F_l``.
    Returns ``(value, raw)`` where ``value`` is clamped to [0, 1] and ``raw``
    is the pre-clamp assembly.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if phi.parity != 1:
        raise ValueError("the imaginary probe needs the odd series")
    q_plus, q_minus = real_probe_expectations
    powers = alpha ** (2 * np.arange(len(phi)) + 1)
    series = 2.0 * math.exp(-alpha * alpha) * float(powers @ phi.values)
    raw = 0.5 * (q_plus + q_minus) + 0.5 * sign * series
    return min(max(raw, 0.0), 1.0), raw


def even_cat_probe_expectation(
    psi: PhiVector,
    alpha: float,
    real_probe_expectations: tuple[float, float],
) -> tuple[float, float]:
    """Expectation for the even cat probe |C+>, synthesized from the data.

    ``Re <alpha|P|-alpha>`` is an alternating even series in alpha with the
    same coefficients recovered from the symmetric gamma statistic, and

        <C+|P|C+> = ( <a|P|a> + <-a|P|-a> + 2 Re <a|P|-a> ) / Nplus^2.

    Returns ``(value, raw)`` with the clamped and pre-clamp assemblies.
    """
    if psi.parity != 0:
        raise ValueError("the even cat probe needs the even series")
    q_plus, q_minus = real_probe_expectations
    psi = psi.values
    signs = (-1.0) ** np.arange(psi.size)
    powers = alpha ** (2 * np.arange(psi.size))
    cross = math.exp(-alpha * alpha) * float((signs * powers) @ psi)
    nplus_sq = 2.0 * (1.0 + math.exp(-2.0 * alpha * alpha))
    raw = (q_plus + q_minus + 2.0 * cross) / nplus_sq
    return min(max(raw, 0.0), 1.0), raw


def _hermitian_eigvals(a: float, b: float, c: complex) -> tuple[float, float]:
    """Eigenvalues (low, high) of the Hermitian [[a, c], [c*, b]] in closed
    form: (a + b)/2 -+ hypot((a - b)/2, |c|)."""
    mean = 0.5 * (a + b)
    radius = math.hypot(0.5 * (a - b), c.real, c.imag)
    return mean - radius, mean + radius


def _eigvals_2x2(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of the Hermitian part of a 2 x 2 matrix."""
    return _hermitian_eigvals(
        float(m[0, 0].real), float(m[1, 1].real), complex(0.5 * (m[0, 1] + m[1, 0].conjugate()))
    )


@dataclass(frozen=True)
class ScsPovm:
    """Two-outcome POVM restricted to the orthonormal {|C+>, |C->} basis."""

    pi0: np.ndarray
    pi1: np.ndarray
    diagnostics: dict | None = None

    def __post_init__(self) -> None:
        for name in ("pi0", "pi1"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        comp = np.max(np.abs(self.pi0 + self.pi1 - np.eye(2)))
        if not comp <= COMPLETENESS_TOL_2D:
            raise ValueError(f"elements do not sum to identity (residual {comp:g})")
        for name in ("pi0", "pi1"):
            low, _ = _eigvals_2x2(getattr(self, name))
            if not low >= -EIGENVALUE_FLOOR_2D:
                raise ValueError(f"{name} has eigenvalue {low:g} below the floor")


def probe_coefficients(alpha: float, dim) -> np.ndarray:
    """The four reconstruction probes as coefficient vectors in {|C+>, |C->}.

    Rows: |+alpha>, |-alpha>, (|alpha> + i|-alpha>)/sqrt(2), |C+>, using
    |+-alpha> = (Nplus |C+> +- Nminus |C->) / 2.
    """
    nplus, nminus = cat_norm_factors(alpha, dim)
    a = 0.5 * nplus
    b = 0.5 * nminus
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [a, b],
            [a, -b],
            [a * (1.0 + 1.0j) * s, b * (1.0 - 1.0j) * s],
            [1.0, 0.0],
        ],
        dtype=complex,
    )


def _design(rho: np.ndarray) -> np.ndarray:
    """Real (n, 4) design with p_i = Tr(rho_i pi0) = design[i] @ x.

    Tr(rho pi0) = a rho_00 + b rho_11 + 2 Re(c) Re(rho_10) - 2 Im(c) Im(rho_10)
    for pi0 = [[a, c], [c*, b]], one real row per probe.
    """
    return np.stack(
        [rho[:, 0, 0].real, rho[:, 1, 1].real, 2.0 * rho[:, 1, 0].real, -2.0 * rho[:, 1, 0].imag],
        axis=1,
    )


def _linear_inversion(rho: np.ndarray, freq: np.ndarray) -> np.ndarray | None:
    """The pi0 whose pair (pi0, I - pi0) reproduces every frequency row, or
    None when the probes do not fix one (a number of probes other than four,
    or a singular design)."""
    if rho.shape[0] != 4:
        return None
    try:
        a, b, re_c, im_c = np.linalg.solve(_design(rho), freq[:, 0] / freq.sum(axis=1))
    except np.linalg.LinAlgError:
        return None
    c = complex(re_c, im_c)
    return np.array([[a, c], [c.conjugate(), b]])


def _newton_system(rows, x: tuple, mu: float) -> tuple[tuple, tuple, float]:
    """Gradient and upper Hessian triangle (row-major) of the stage objective
    -L(x) - mu [log det pi0 + log det(I - pi0)] at x = (a, b, Re c, Im c),
    and sum_i s_i p_i, for design rows (d_i, f_i0, f_i1).

    Probe i has p_i = d_i . x, slope s_i = f_i0/p_i - f_i1/(1 - p_i) and
    curvature w_i = f_i0/p_i^2 + f_i1/(1 - p_i)^2, so -L contributes
    -sum_i s_i d_i and sum_i w_i d_i d_i'.  A zero frequency contributes
    nothing, also where its probability has rounded to 0.  With
    pi0 = sum_k x_k E_k and Y = [[p, z], [z*, q]] the inverse of pi0 or of
    I - pi0, Tr(Y E_k) = (p, q, 2 Re z, 2 Im z) and the Hessian of
    -log det is Tr(Y E_k Y E_l), whose ten distinct entries are written out
    below.  At mu = 0 this is -L alone.  An x with pi0 or I - pi0 not
    positive definite raises ConvergenceError."""
    a, b, re, im = x
    cc = re * re + im * im
    det0 = a * b - cc
    det1 = (1.0 - a) * (1.0 - b) - cc
    if not (det0 > 0.0 and det1 > 0.0):
        raise ConvergenceError(
            f"barrier Newton iterate left the interior of 0 <= pi0 <= I "
            f"(det pi0 = {det0:g}, det(I - pi0) = {det1:g})"
        )
    # pi0^-1 = [[b, -c], [-c*, a]] / det0, (I - pi0)^-1 = [[1 - b, c], [c*, 1 - a]] / det1;
    # d(I - pi0)/dx_k = -E_k flips the sign of the second gradient only
    p0, q0, r0, i0 = b / det0, a / det0, -re / det0, -im / det0
    p1, q1, r1, i1 = (1.0 - b) / det1, (1.0 - a) / det1, re / det1, im / det1
    zz0, zz1 = r0 * r0 - i0 * i0, r1 * r1 - i1 * i1
    mu2 = 2.0 * mu
    g0, g1, g2, g3 = mu * (p1 - p0), mu * (q1 - q0), mu2 * (r1 - r0), mu2 * (i1 - i0)
    h00 = mu * (p0 * p0 + p1 * p1)
    h01 = mu * (r0 * r0 + i0 * i0 + r1 * r1 + i1 * i1)
    h02 = mu2 * (p0 * r0 + p1 * r1)
    h03 = mu2 * (p0 * i0 + p1 * i1)
    h11 = mu * (q0 * q0 + q1 * q1)
    h12 = mu2 * (q0 * r0 + q1 * r1)
    h13 = mu2 * (q0 * i0 + q1 * i1)
    h22 = mu2 * (p0 * q0 + zz0 + p1 * q1 + zz1)
    h23 = 2.0 * mu2 * (r0 * i0 + r1 * i1)
    h33 = mu2 * (p0 * q0 - zz0 + p1 * q1 - zz1)
    sp = 0.0
    for d0, d1, d2, d3, f0, f1 in rows:
        p = d0 * a + d1 * b + d2 * re + d3 * im
        s = w = 0.0
        if f0 > 0.0:
            s = f0 / p
            w = s / p
        if f1 > 0.0:
            r = f1 / (1.0 - p)
            s -= r
            w += r / (1.0 - p)
        g0 -= s * d0
        g1 -= s * d1
        g2 -= s * d2
        g3 -= s * d3
        sp += s * p
        w0, w1, w2, w3 = w * d0, w * d1, w * d2, w * d3
        h00 += w0 * d0
        h01 += w0 * d1
        h02 += w0 * d2
        h03 += w0 * d3
        h11 += w1 * d1
        h12 += w1 * d2
        h13 += w1 * d3
        h22 += w2 * d2
        h23 += w2 * d3
        h33 += w3 * d3
    return (g0, g1, g2, g3), (h00, h01, h02, h03, h11, h12, h13, h22, h23, h33), sp


def _pivot_root(pivot: float) -> float:
    if not pivot > 0.0:
        raise ConvergenceError(f"barrier Newton Hessian is not positive definite (pivot {pivot:g})")
    return math.sqrt(pivot)


def _spd_solve(h: tuple, v: tuple) -> tuple:
    """Solve H x = v for a symmetric positive definite 4 x 4 H given by its
    upper triangle (row-major), by Cholesky factorization H = L L'.  A pivot
    that is not positive raises ConvergenceError."""
    h00, h01, h02, h03, h11, h12, h13, h22, h23, h33 = h
    v0, v1, v2, v3 = v
    l00 = _pivot_root(h00)
    l10, l20, l30 = h01 / l00, h02 / l00, h03 / l00
    l11 = _pivot_root(h11 - l10 * l10)
    l21, l31 = (h12 - l20 * l10) / l11, (h13 - l30 * l10) / l11
    l22 = _pivot_root(h22 - l20 * l20 - l21 * l21)
    l32 = (h23 - l30 * l20 - l31 * l21) / l22
    l33 = _pivot_root(h33 - l30 * l30 - l31 * l31 - l32 * l32)
    y0 = v0 / l00
    y1 = (v1 - l10 * y0) / l11
    y2 = (v2 - l20 * y0 - l21 * y1) / l22
    y3 = (v3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    x3 = y3 / l33
    x2 = (y2 - l32 * x3) / l22
    x1 = (y1 - l21 * x2 - l31 * x3) / l11
    x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
    return x0, x1, x2, x3


def _barrier_newton(rho: np.ndarray, freq: np.ndarray) -> tuple[np.ndarray, dict]:
    """Maximize the log-likelihood over 0 <= pi0 <= I by path following.

    Each stage minimizes -L(x) - mu [log det pi0 + log det(I - pi0)] in
    x = (a, b, Re c, Im c), starting from I/2, with damped Newton steps
    x += dx / (1 + lam), or the full step once lam <= 1/4, where
    lam^2 = g' H^-1 g / mu (Boyd & Vandenberghe, Convex Optimization,
    sections 9.6 and 11.3).  The step stays inside the Dikin ellipsoid of the
    log-det barrier, so every iterate has its spectrum strictly inside
    (0, 1).  The result is certified by the Frank-Wolfe gap
    sum(max(eig G, 0)) - Tr(G pi0), G = sum_i (f_i0/p_i - f_i1/(1 - p_i)) rho_i,
    which bounds L* - L because L is concave (Jaggi, ICML 2013).

    The weights run mu = 1, 1e-1, ..., 1e-13, one Newton stage each of at
    most ``MLE_MAX_STEPS`` steps.  At the centre of a stage the gap is at
    most 2 mu; a smaller last mu leaves the Hessian near singular.  A stage
    ends when lam < 1e-7, or when a full step fails to lower lam: full steps
    at least halve it, so it has reached the floor that rounding in the
    smallest eigenvalue sets.

    Every step is scalar arithmetic on Python floats: the gradient and
    Hessian come from the closed-form 2 x 2 inverses of pi0 and I - pi0
    (``_newton_system``), the step from a 4 x 4 Cholesky solve
    (``_spd_solve``), and the certificate from the closed-form eigenvalues
    of the 2 x 2 Hermitian G (``_hermitian_eigvals``).  An iterate whose
    pi0 or I - pi0 is not positive definite, or a Hessian that is not,
    raises ConvergenceError."""
    rows = [(*d, f0, f1) for d, (f0, f1) in zip(_design(rho).tolist(), freq.tolist())]
    x = (0.5, 0.5, 0.0, 0.0)
    steps = 0
    delta = 0.0
    for mu in (10.0 ** -np.arange(14)).tolist():
        previous = math.inf
        for _ in range(MLE_MAX_STEPS):
            (g0, g1, g2, g3), hess, _ = _newton_system(rows, x, mu)
            d0, d1, d2, d3 = _spd_solve(hess, (-g0, -g1, -g2, -g3))
            lam = math.sqrt(max(-(g0 * d0 + g1 * d1 + g2 * d2 + g3 * d3), 0.0) / mu)
            if lam > 0.25:
                scale = 1.0 / (1.0 + lam)
                d0, d1, d2, d3 = d0 * scale, d1 * scale, d2 * scale, d3 * scale
            x = (x[0] + d0, x[1] + d1, x[2] + d2, x[3] + d3)
            steps += 1
            delta = max(abs(d0), abs(d1), abs(complex(d2, d3)))
            if lam < 1e-7 or previous <= lam <= 0.25:
                break
            previous = lam
    # the gradient of L is G = sum_i s_i rho_i, Hermitian 2 x 2 with diagonal
    # (-g0, -g1) and |G_01| = |g2 + i g3| / 2 in the mu = 0 gradient g of -L
    (g0, g1, g2, g3), _, sp = _newton_system(rows, x, 0.0)
    low, high = _hermitian_eigvals(-g0, -g1, complex(0.5 * g2, 0.5 * g3))
    gap = max(high, 0.0) + max(low, 0.0) - sp
    if not gap <= MLE_GAP_TOL:
        raise ConvergenceError(
            f"boundary likelihood fit left a duality gap of {gap:g} after {steps} Newton steps "
            f"(tolerance {MLE_GAP_TOL:g})"
        )
    a, b, re, im = x
    c = complex(re, im)
    pi0 = np.array([[a, c], [c.conjugate(), b]])
    return pi0, {"iterations": steps, "converged": True, "final_delta": delta, "duality_gap": gap}


def mle_reconstruct(probe_states: np.ndarray, frequencies: np.ndarray) -> ScsPovm:
    """Maximum-likelihood reconstruction of a binary 2x2 POVM.

    ``probe_states`` is an (n, 2, 2) stack of density matrices, and
    ``frequencies`` an (n, 2) row-stochastic matrix of observed outcome
    rates.

    Closed form first: four probes fix the four real parameters of pi0, and
    when the linear inversion of the frequencies has its spectrum in [0, 1]
    the pair (pi0, I - pi0) reproduces every frequency, which by Gibbs'
    inequality is the global likelihood maximum.  It is returned exactly,
    with ``iterations`` 0 in ``diagnostics``.

    Only an inversion outside [0, 1] (an optimum on the boundary) or a probe
    set that does not fix pi0 runs a certified barrier Newton solve
    (``_barrier_newton``): ``iterations`` counts its Newton steps,
    ``final_delta`` is the largest entry change of the last one, and
    ``duality_gap`` bounds how far the log-likelihood lies below the
    maximum.  A gap above ``MLE_GAP_TOL`` raises ConvergenceError.
    """
    rho = np.asarray(probe_states, dtype=complex)
    freq = np.asarray(frequencies, dtype=float)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise ValueError("probe_states must be a stack of 2x2 density matrices")
    if freq.shape != (rho.shape[0], 2):
        raise ValueError("frequencies must be (n_probes, 2)")
    if not (np.isfinite(freq).all() and np.isfinite(rho).all()):
        raise ValueError("probe states and frequencies must be finite")
    if np.any(freq < -1e-12) or np.max(np.abs(freq.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("frequency rows must be non-negative and sum to 1")
    for i, r in enumerate(rho):
        if abs(np.trace(r) - 1.0) > 1e-9:
            raise ValueError(f"probe {i} does not have unit trace")
        if _eigvals_2x2(r)[0] < -1e-9:
            raise ValueError(f"probe {i} is not positive semidefinite")

    def log_likelihood(elements) -> float:
        p = np.stack([np.einsum("ikl,lk->i", rho, pi).real for pi in elements], axis=1)
        return float(np.sum(freq * np.log(np.maximum(p, MLE_PROB_FLOOR))))

    pi0 = _linear_inversion(rho, freq)
    if pi0 is not None:
        low, high = _eigvals_2x2(pi0)
        if not (low >= 0.0 and high <= 1.0):
            pi0 = None
    if pi0 is None:
        pi0, diagnostics = _barrier_newton(rho, freq)
    else:
        diagnostics = {"iterations": 0, "converged": True, "final_delta": 0.0}
    elements = (pi0, np.eye(2) - pi0)
    diagnostics["log_likelihood"] = log_likelihood(elements)
    return ScsPovm(*elements, diagnostics=diagnostics)


def scs_basis_project(op: FockOperator, alpha: float, dim) -> np.ndarray:
    """2x2 block <C_k| op |C_l> of a Fock-space operator in the cat basis."""
    from .fock import cat_basis  # local import to keep module init light

    dim = as_dim(dim)
    plus, minus = cat_basis(alpha, dim)
    basis = np.stack([plus.amps, minus.amps])
    return basis.conj() @ op.entries @ basis.T


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


def measurement_fidelity(povm: ScsPovm, spec: ScsMeasurementSpec) -> float:
    """Two-term average fidelity of a 2x2 pair against the target vectors."""
    t0 = np.array([spec.c0, spec.c1 * np.exp(1j * spec.phi)])
    t1 = np.array([spec.c1 * np.exp(-1j * spec.phi), -spec.c0])
    val = 0.5 * ((t0.conj() @ povm.pi0 @ t0) + (t1.conj() @ povm.pi1 @ t1))
    return float(val.real)


def povm_pair_fidelity(a: ScsPovm, b: ScsPovm) -> float:
    """Trace-weighted Uhlmann fidelity between two binary 2x2 POVMs.

    Each element is normalized to unit trace and compared as a state; the
    per-outcome fidelities are averaged with weights Tr(a_j)/2 taken from
    the first pair.  For qubit states the Uhlmann fidelity has the exact
    form F = Tr(rho sigma) + 2 sqrt(det rho det sigma) (Huebner, Phys. Lett.
    A 163, 239 (1992)), with each determinant the product of the
    closed-form eigenvalues, so no matrix square root is taken.
    """
    total = 0.0
    for aj, bj in ((a.pi0, b.pi0), (a.pi1, b.pi1)):
        ta = np.trace(aj).real
        tb = np.trace(bj).real
        if ta <= 0.0 or tb <= 0.0:
            continue
        rho, sigma = aj / ta, bj / tb
        det_rho, det_sigma = (max(low, 0.0) * high for low, high in map(_eigvals_2x2, (rho, sigma)))
        overlap = float(np.einsum("kl,lk->", rho, sigma).real)
        total += 0.5 * ta * (overlap + 2.0 * math.sqrt(det_rho * det_sigma))
    return total


@dataclass(frozen=True)
class TomographyRun:
    """All intermediates of one reconstruction, for reporting and re-runs."""

    probes: ProbeSet
    clicks: ClickTable
    dim: TruncationDim
    f_odd: np.ndarray
    f_even: np.ndarray
    phi: tuple[PhiVector, PhiVector]
    psi: tuple[PhiVector, PhiVector]
    expectations: dict
    probe_matrices: np.ndarray
    frequencies: np.ndarray
    povm: ScsPovm


def _require_probe_rows(clicks: ClickTable, probes: ProbeSet) -> None:
    """Raise ``ValueError`` unless the table has one row per probe amplitude."""
    expected = probes.amplitudes()
    if len(clicks.probe_amplitudes) != len(expected):
        raise ValueError(
            f"click table has {len(clicks.probe_amplitudes)} rows, "
            f"probe set requires {len(expected)}"
        )
    for amp in expected:
        try:
            clicks.row_index(amp)
        except KeyError:
            raise ValueError(f"click table has no row at probe amplitude {amp!r}") from None


def tomography_pipeline(clicks: ClickTable, probes: ProbeSet, dim) -> TomographyRun:
    """Chain statistics -> series solves -> synthesized probes -> MLE."""
    dim = as_dim(dim)
    _require_probe_rows(clicks, probes)

    r0, _ = clicks.rates()
    q_plus = float(r0[clicks.row_index(complex(probes.alpha))])
    q_minus = float(r0[clicks.row_index(complex(-probes.alpha))])

    f_odd, f_even = f_statistic(clicks, probes, 1), f_statistic(clicks, probes, 0)
    phi = tuple(solve_phi(f, probes, 1) for f in f_odd)
    psi = tuple(solve_phi(f, probes, 0) for f in f_even)

    im_plus, im_plus_raw = imaginary_probe_expectation(
        phi[0], probes.alpha, (q_plus, q_minus), sign=+1
    )
    im_minus, im_minus_raw = imaginary_probe_expectation(
        phi[0], probes.alpha, (q_plus, q_minus), sign=-1
    )
    cat_plus, cat_plus_raw = even_cat_probe_expectation(
        psi[0], probes.alpha, (q_plus, q_minus)
    )

    coeffs = probe_coefficients(probes.alpha, dim)
    rho = np.einsum("ik,il->ikl", coeffs, coeffs.conj())
    frequencies = np.array(
        [
            [q_plus, 1.0 - q_plus],
            [q_minus, 1.0 - q_minus],
            [im_plus, 1.0 - im_plus],
            [cat_plus, 1.0 - cat_plus],
        ]
    )
    povm = mle_reconstruct(rho, frequencies)
    return TomographyRun(
        probes=probes,
        clicks=clicks,
        dim=dim,
        f_odd=f_odd,
        f_even=f_even,
        phi=phi,
        psi=psi,
        expectations={
            "q_plus": q_plus,
            "q_minus": q_minus,
            "im_plus": im_plus,
            "im_plus_raw": im_plus_raw,
            "im_minus": im_minus,
            "im_minus_raw": im_minus_raw,
            "cat_plus": cat_plus,
            "cat_plus_raw": cat_plus_raw,
        },
        probe_matrices=rho,
        frequencies=frequencies,
        povm=povm,
    )


_REPORTED_SCALARS = (
    ("pi0_00_re", lambda run: run.povm.pi0[0, 0].real),
    ("pi0_01_re", lambda run: run.povm.pi0[0, 1].real),
    ("pi0_01_im", lambda run: run.povm.pi0[0, 1].imag),
    ("pi0_11_re", lambda run: run.povm.pi0[1, 1].real),
    ("im_plus", lambda run: run.expectations["im_plus"]),
    ("cat_plus", lambda run: run.expectations["cat_plus"]),
)


def error_bars(run: TomographyRun, alpha_sigma: float) -> dict:
    """Systematic-error envelopes from re-running at alpha +- sigma.

    The click data are fixed; only the assumed probe amplitude moves.  Each
    reported scalar gets a ``(lo, hi)`` interval over the three re-runs,
    which by construction contains the central value.
    """
    if alpha_sigma < 0:
        raise ValueError("alpha_sigma must be >= 0")
    if run.probes.alpha - alpha_sigma <= 0:
        raise ValueError("alpha - sigma must stay positive")
    runs = [run]
    for shifted in (run.probes.alpha - alpha_sigma, run.probes.alpha + alpha_sigma):
        probes = ProbeSet(alpha=shifted, gammas=run.probes.gammas)
        clicks = ClickTable(
            probes.amplitudes(), run.clicks.counts0, run.clicks.counts1, run.clicks.shots
        )
        runs.append(tomography_pipeline(clicks, probes, run.dim))
    out = {}
    for name, extract in _REPORTED_SCALARS:
        vals = [extract(r) for r in runs]
        out[name] = (min(vals), max(vals))
    return out


__all__ = [
    "ClickTable",
    "ConvergenceError",
    "PhiVector",
    "ProbeSet",
    "ScsPovm",
    "TomographyRun",
    "error_bars",
    "even_cat_probe_expectation",
    "f_statistic",
    "gamma_matrix",
    "imaginary_probe_expectation",
    "measurement_fidelity",
    "mle_reconstruct",
    "povm_entry_bound_check",
    "povm_pair_fidelity",
    "probe_coefficients",
    "scs_basis_project",
    "series_bound",
    "solve_phi",
    "tomography_pipeline",
]
