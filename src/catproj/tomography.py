"""Reconstruction of a binary measurement in the 2-D cat-state basis.

The outcome statistics of coherent probes ``|+alpha>``, ``|-alpha>`` and
``|+-i*gamma_k>`` determine the POVM restricted to span{|C+>, |C->}.  A
click table's rows are matched to the probes once, by amplitude, and read
by position after that; a sweep reconstructs the tables of all its rows
as one stack, and a single run is a stack of one.  The imaginary-probe
rows enter through two polynomial series in the probe amplitude: the odd
coefficients (antisymmetric combination of the ``+-i`` rates) recover the
imaginary parts of the Fock off-diagonals, while the even coefficients
(symmetric combination) recover the real parts needed to synthesize an
even-cat probe.  One routine per step serves both series, selected by
``parity``; each series is fitted inside the box that the entry bound on
POVM elements puts on its coefficients, by one stacked exact solve for the
fits inside the box and otherwise by the reduced solves of the box's 3^K
faces, of which the least-residual feasible one is the fit (Lawson & Hanson,
Solving Least Squares Problems, 1974).  The 2x2 pair is then reconstructed
from four informationally complete probe states, closed form first: the
linear inversion of the four rates, one stacked solve, is the likelihood
maximum whenever it is physical.  Only an optimum on the boundary of
0 <= pi0 <= I runs an iteration, a log-det barrier Newton solve whose
result is certified by a duality gap.  No step takes a photon-number
cutoff: the probes enter through the exact cat norms ``cat_norm_squares``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .fock import MIN_ALPHA, ScsMeasurementSpec, cat_norm_squares

COMPLETENESS_TOL_2D = 1e-6
EIGENVALUE_FLOOR_2D = 1e-9
# the out-of-box series solve enumerates all 3**K faces of the coefficient box
MAX_GAMMAS = 6
# the series statistic divides by 2 exp(-gamma^2), which magnifies click
# noise 1 / (2 e^-25) = 3.6e10 times at gamma = 5, and underflows to 0 past 27
MAX_GAMMA = 5.0
MLE_PROB_FLOOR = 1e-12
MLE_GAP_TOL = 1e-12
MLE_MAX_STEPS = 50

_AMPLITUDE_MATCH_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A solver exhausted its iteration budget or could not certify its result."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProbeSet:
    """Coherent probe amplitudes: the cat amplitude and the |+-i*gamma> list.

    The constants of the reconstructions from these probes (``series`` and
    ``states``) are derived once per probe set, on first use."""

    alpha: float
    gammas: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not all(math.isfinite(v) for v in (self.alpha, *self.gammas)):
            raise ValueError("probe amplitudes must be finite")
        if not self.alpha >= MIN_ALPHA:
            raise ValueError(f"alpha must be at least MIN_ALPHA = {MIN_ALPHA:g}, got {self.alpha}")
        if not 1 <= len(self.gammas) <= MAX_GAMMAS:
            raise ValueError(f"expected 1 to {MAX_GAMMAS} gamma probe amplitudes, got {len(self.gammas)}")
        if any(not 0 < g <= MAX_GAMMA for g in self.gammas):
            raise ValueError(f"gamma amplitudes must lie in (0, MAX_GAMMA = {MAX_GAMMA:g}]")
        if len(set(self.gammas)) != len(self.gammas):
            raise ValueError("gamma amplitudes must be distinct")

    @property
    def k(self) -> int:
        return len(self.gammas)

    @cached_property
    def series(self) -> tuple:
        """``series[parity]``: the series fit's design matrix (``gamma_matrix``)
        and the ``series_bound`` of each of its coefficients."""
        out = []
        for parity in (0, 1):
            bounds = np.array([series_bound(int(o)) for o in _orders(self.k, parity)])
            out.append((_frozen(gamma_matrix(self, parity)), _frozen(bounds)))
        return tuple(out)

    @cached_property
    def states(self) -> np.ndarray:
        """The (4, 2, 2) density matrices of the four reconstruction probe
        states (``probe_coefficients``), checked by ``_checked_states``."""
        coeffs = probe_coefficients(self.alpha)
        return _frozen(_checked_states(np.einsum("ik,il->ikl", coeffs, coeffs.conj())))

    def amplitudes(self) -> tuple:
        """Probe amplitudes in canonical row order: +a, -a, +ig_1, -ig_1, ..."""
        rows = [complex(self.alpha), complex(-self.alpha)]
        for g in self.gammas:
            rows.append(complex(0.0, g))
            rows.append(complex(0.0, -g))
        return tuple(rows)


@dataclass(frozen=True)
class ClickTable:
    """Per-probe outcome counts, one row per probe amplitude in any order.
    A reconstruction matches the rows to its probes once, by amplitude
    (``_match_probe_rows``), and reads them by position after that.

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
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=float)))
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
    odd series (``parity`` 1) or [F_0, F_2, ..., F_{2K-2}] for the even one.
    ``bounds``, when given, are the ``series_bound`` of those orders, as a
    ``ProbeSet`` holds them."""

    values: np.ndarray
    parity: int = 1
    bounds: InitVar[np.ndarray | None] = None

    def __post_init__(self, bounds) -> None:
        vals = _frozen(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("expected a non-empty 1-D coefficient vector")
        orders = _orders(vals.size, self.parity)
        if bounds is None:
            bounds = [series_bound(int(order)) for order in orders]
        elif len(bounds) != vals.size:
            raise ValueError(f"expected {vals.size} coefficient bounds, got {len(bounds)}")
        for order, v, bound in zip(orders, vals, bounds):
            if abs(v) > bound + 1e-9:
                raise ValueError(
                    f"coefficient of order {order} is {v!r}, beyond its bound {float(bound)!r}"
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
    that is the answer.  Otherwise each face of the box (every coefficient
    free or fixed at a bound) is solved for its free coefficients.  The fit
    is strictly convex, so its minimizer is the feasible face solve of least
    residual; the all-fixed faces are always feasible.  A non-finite
    statistic raises ValueError."""
    f = np.asarray(f, dtype=float)
    if f.shape != (probes.k,):
        raise ValueError(f"expected {probes.k} statistics, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"series statistic must be finite, got {f}")
    _orders(probes.k, parity)  # rejects a parity other than 0 or 1
    mat, bounds = probes.series[parity]
    try:
        exact = np.linalg.solve(mat, f)
    except np.linalg.LinAlgError:
        exact = None
    if exact is not None and np.all(np.abs(exact) <= bounds):
        return PhiVector(exact, parity, bounds)
    # faces are ranked by (|Ax - f|^2 - |f|^2) / (2 scale): dropping the
    # constant keeps a large |f| from rounding their differences away, and
    # the scale keeps the products finite
    scale = max(1.0, float(np.max(np.abs(f))))
    best, best_value = None, math.inf
    for face in itertools.product((-1.0, 0.0, 1.0), repeat=probes.k):
        x = np.array(face) * bounds
        free = x == 0.0
        if free.any():
            try:
                x[free] = np.linalg.lstsq(mat[:, free], f - mat @ x, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            if np.any(np.abs(x[free]) > bounds[free]):
                continue
        fit = mat @ x
        value = (fit / scale) @ (0.5 * fit - f)
        if value < best_value:
            best, best_value = x, value
    return PhiVector(best, parity, bounds)


def f_statistic(clicks: ClickTable, probes: ProbeSet, parity: int = 1) -> np.ndarray:
    """Probe statistic of one series, shape (2, K): one row per outcome.

    f_k = (rate at +i*gamma_k -+ rate at -i*gamma_k) / (2 exp(-gamma_k^2)),
    the difference for the odd series and the sum for the even one.  The
    rows are matched to the probes first (``_match_probe_rows``).
    """
    _orders(probes.k, parity)  # rejects a parity other than 0 or 1
    return _statistics(np.stack(_match_probe_rows(clicks, probes).rates()), probes)[parity]


def _statistics(rates: np.ndarray, probes: ProbeSet) -> np.ndarray:
    """Both series statistics (``f_statistic``), indexed by parity first, from
    the (..., 2, 2 + 2K) outcome rates of tables in probe order: the rates at
    +i*gamma_k are columns 2, 4, ... and those at -i*gamma_k columns 3, 5, ..."""
    scale = np.array([2.0 * math.exp(-g * g) for g in probes.gammas])
    signs = np.array([1.0, -1.0]).reshape((2,) + (1,) * rates.ndim)
    return (rates[..., 2::2] + signs * rates[..., 3::2]) / scale


def _series_fits(f: np.ndarray, probes: ProbeSet, parity: int) -> np.ndarray:
    """``solve_phi``'s coefficients for every row of an (m, K) statistic
    stack: one stacked exact solve, which keeps each row's bits (a (K, m)
    right-hand side would not), and ``solve_phi`` for the rows outside the box."""
    mat, bounds = probes.series[parity]
    try:
        fits = np.linalg.solve(np.broadcast_to(mat, f.shape + (probes.k,)), f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        fits = np.full(f.shape, np.nan)
    for i in np.flatnonzero(~np.all(np.abs(fits) <= bounds, axis=1)):
        fits[i] = solve_phi(f[i], probes, parity).values
    return fits


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
    nplus_sq, _ = cat_norm_squares(alpha)
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
            object.__setattr__(self, name, _frozen(arr))
        comp = np.max(np.abs(self.pi0 + self.pi1 - np.eye(2)))
        if not comp <= COMPLETENESS_TOL_2D:
            raise ValueError(f"elements do not sum to identity (residual {comp:g})")
        for name in ("pi0", "pi1"):
            low, _ = _eigvals_2x2(getattr(self, name))
            if not low >= -EIGENVALUE_FLOOR_2D:
                raise ValueError(f"{name} has eigenvalue {low:g} below the floor")


def probe_coefficients(alpha: float) -> np.ndarray:
    """The four reconstruction probes as coefficient vectors in {|C+>, |C->}.

    Rows: |+alpha>, |-alpha>, (|alpha> + i|-alpha>)/sqrt(2), |C+>, using
    |+-alpha> = (Nplus |C+> +- Nminus |C->) / 2 with the untruncated norms.
    """
    nplus_sq, nminus_sq = cat_norm_squares(alpha)
    a = 0.5 * math.sqrt(nplus_sq)
    b = 0.5 * math.sqrt(nminus_sq)
    s = 1.0 / math.sqrt(2.0)
    return np.array([[a, b], [a, -b], [a * (1.0 + 1.0j) * s, b * (1.0 - 1.0j) * s], [1.0, 0.0]], dtype=complex)


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
    """The pi0 whose pair (pi0, I - pi0) reproduces every frequency row, for
    an (n, 2) frequency table or a stack of them, or None when the probes do
    not fix one (a number of probes other than four, or a singular design).
    A stack makes one stacked 4 x 4 solve, which keeps each table's bits."""
    if rho.shape[0] != 4:
        return None
    p = freq[..., 0] / freq.sum(axis=-1)
    try:
        x = np.linalg.solve(np.broadcast_to(_design(rho), p.shape + (4,)), p[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    pi0 = np.zeros(p.shape[:-1] + (2, 2), dtype=complex)
    pi0.real[...] = x[..., [[0, 2], [2, 1]]]  # [[a, Re c], [Re c, b]]
    pi0.imag[..., 0, 1], pi0.imag[..., 1, 0] = x[..., 3], -x[..., 3]
    return pi0


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


def _checked_states(rho: np.ndarray) -> np.ndarray:
    """``rho`` as complex, once it is an (n, 2, 2) stack of finite density
    matrices: Hermitian within 1e-9, unit trace, positive semidefinite."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (2, 2):
        raise ValueError("probe_states must be a stack of 2x2 density matrices")
    if not np.isfinite(rho).all():
        raise ValueError("probe states must be finite")
    for i, r in enumerate(rho):
        if max(abs(r[0, 1] - r[1, 0].conjugate()), abs(r[0, 0].imag), abs(r[1, 1].imag)) > 1e-9:
            raise ValueError(f"probe {i} is not Hermitian")
        if abs(np.trace(r) - 1.0) > 1e-9:
            raise ValueError(f"probe {i} does not have unit trace")
        if _eigvals_2x2(r)[0] < -1e-9:
            raise ValueError(f"probe {i} is not positive semidefinite")
    return rho


def mle_reconstruct(probe_states: np.ndarray, frequencies: np.ndarray) -> ScsPovm:
    """Maximum-likelihood reconstruction of a binary 2x2 POVM.

    ``probe_states`` is an (n, 2, 2) stack of density matrices (Hermitian
    within 1e-9, unit trace, positive semidefinite), and
    ``frequencies`` an (n, 2) row-stochastic matrix of observed outcome
    rates.  Both are checked; this is ``_mle_stack`` on a stack of one
    table, which a reconstruction calls with its probe set's checked states.

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
    rho, freq = _checked_states(probe_states), np.asarray(frequencies, dtype=float)
    return _mle_stack(rho, freq[None], likelihood=True)[0]


def _mle_stack(rho: np.ndarray, freq: np.ndarray, likelihood: bool = False) -> list[ScsPovm]:
    """``mle_reconstruct`` for every table of an (r, n, 2) frequency stack,
    against n states that ``_checked_states`` has passed; the frequencies
    are checked here.  One stacked solve makes every linear inversion, and
    only the tables whose optimum lies on the boundary run
    ``_barrier_newton``.  The log-likelihood is reported on request."""
    if freq.shape[1:] != (rho.shape[0], 2):
        raise ValueError("frequencies must be (n_probes, 2)")
    if not np.isfinite(freq).all():
        raise ValueError("frequencies must be finite")
    if np.any(freq < -1e-12) or np.max(np.abs(freq.sum(axis=-1) - 1.0)) > 1e-9:
        raise ValueError("frequency rows must be non-negative and sum to 1")
    inversions = _linear_inversion(rho, freq)
    povms = []
    for i, table in enumerate(freq):
        # without an inversion (the probes do not fix pi0) there is no spectrum to accept
        low, high = (math.nan, math.nan) if inversions is None else _eigvals_2x2(inversions[i])
        if low >= 0.0 and high <= 1.0:
            pi0, diagnostics = inversions[i], {"iterations": 0, "converged": True, "final_delta": 0.0}
        else:
            pi0, diagnostics = _barrier_newton(rho, table)
        elements = (pi0, np.eye(2) - pi0)
        if likelihood:
            p = np.stack([np.einsum("ikl,lk->i", rho, pi).real for pi in elements], axis=1)
            diagnostics["log_likelihood"] = float(np.sum(table * np.log(np.maximum(p, MLE_PROB_FLOOR))))
        povms.append(ScsPovm(*elements, diagnostics=diagnostics))
    return povms


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
    f_odd: np.ndarray
    f_even: np.ndarray
    phi: tuple[PhiVector, PhiVector]
    psi: tuple[PhiVector, PhiVector]
    expectations: dict
    povm: ScsPovm


def _match_probe_rows(clicks: ClickTable, probes: ProbeSet) -> ClickTable:
    """The table with its rows in ``probes.amplitudes()`` order, each found
    by amplitude (``row_index``), or the table itself when they already are.
    Raises ``ValueError`` unless the table has one row per probe amplitude."""
    expected = probes.amplitudes()
    if len(clicks.probe_amplitudes) != len(expected):
        raise ValueError(f"click table has {len(clicks.probe_amplitudes)} rows, probe set requires {len(expected)}")
    rows = []
    for amp in expected:
        try:
            rows.append(clicks.row_index(amp))
        except KeyError:
            raise ValueError(f"click table has no row at probe amplitude {amp!r}") from None
    if rows == list(range(len(rows))):
        return clicks
    amps = tuple(clicks.probe_amplitudes[i] for i in rows)
    return ClickTable(amps, clicks.counts0[rows], clicks.counts1[rows], clicks.shots[rows])


def _fit(rates: np.ndarray, probes: ProbeSet, outcomes: int) -> tuple[np.ndarray, list]:
    """The fit of an (r, 2, 2 + 2K) stack of outcome rates in probe order,
    which reads no alpha: both series statistics, and the box fits of the
    first ``outcomes`` outcomes, one ``_series_fits`` per parity, each
    indexed by parity, table and outcome."""
    stats = _statistics(rates, probes)
    fits = []
    for parity in (0, 1):
        f, bounds = stats[parity, :, :outcomes], probes.series[parity][1]
        values = _series_fits(f.reshape(-1, probes.k), probes, parity).reshape(f.shape)
        fits.append([tuple(PhiVector(v, parity, bounds) for v in table) for table in values])
    return stats, fits


def _assemble(probes: ProbeSet, q, phi, psi, likelihood: bool = False) -> tuple[list[dict], list[ScsPovm]]:
    """The steps that read alpha, for every table of a stack: the
    synthesized probe expectations and the likelihood fit on the four probe
    states (``_mle_stack``), from the rates ``q`` at +-alpha and the
    outcome-0 series ``phi`` (odd) and ``psi`` (even) of each table."""
    alpha, expectations, frequencies = probes.alpha, [], []
    for q_pair, odd, even in zip(q, phi, psi):
        im_plus, im_plus_raw = imaginary_probe_expectation(odd, alpha, q_pair, sign=+1)
        im_minus, im_minus_raw = imaginary_probe_expectation(odd, alpha, q_pair, sign=-1)
        cat_plus, cat_plus_raw = even_cat_probe_expectation(even, alpha, q_pair)
        q_plus, q_minus = q_pair
        expectations.append(dict(
            q_plus=q_plus, q_minus=q_minus, im_plus=im_plus, im_plus_raw=im_plus_raw,
            im_minus=im_minus, im_minus_raw=im_minus_raw, cat_plus=cat_plus, cat_plus_raw=cat_plus_raw,
        ))
        frequencies.append([[p, 1.0 - p] for p in (q_plus, q_minus, im_plus, cat_plus)])
    return expectations, _mle_stack(probes.states, np.array(frequencies), likelihood)


def _reconstruct(rates: np.ndarray, probes: ProbeSet) -> list[ScsPovm]:
    """The pair of every table of an (r, 2, 2 + 2K) stack of outcome rates,
    whose row i holds the clicks at ``probes.amplitudes()[i]``, so the same
    clicks can be read at other probe amplitudes (loss compensation).  A
    sweep reads the pairs alone: only outcome 0 is fitted, and no
    log-likelihood or ``TomographyRun`` is built."""
    _, (psi, phi) = _fit(rates, probes, 1)
    return _assemble(probes, rates[:, 0, :2].tolist(), [t[0] for t in phi], [t[0] for t in psi])[1]


def tomography_pipeline(clicks: ClickTable, probes: ProbeSet) -> TomographyRun:
    """Chain statistics -> series solves -> synthesized probes -> MLE, on a
    stack of one table matched to the probes once (``_match_probe_rows``),
    which the run holds.  The fit (``_fit``: q+-, both series statistics and
    the box fits of both outcomes) reads no alpha, so ``error_bars`` re-runs
    only the assembly (``_assemble``).  No step reads a Fock cutoff."""
    clicks = _match_probe_rows(clicks, probes)
    rates = np.stack(clicks.rates())[None]
    (f_even, f_odd), (psi, phi) = _fit(rates, probes, 2)
    q = rates[:, 0, :2].tolist()
    (expectations,), (povm,) = _assemble(probes, q, [phi[0][0]], [psi[0][0]], likelihood=True)
    return TomographyRun(probes, clicks, f_odd[0], f_even[0], phi[0], psi[0], expectations, povm)


_REPORTED_SCALARS = (
    ("pi0_00_re", lambda exp, povm: povm.pi0[0, 0].real),
    ("pi0_01_re", lambda exp, povm: povm.pi0[0, 1].real),
    ("pi0_01_im", lambda exp, povm: povm.pi0[0, 1].imag),
    ("pi0_11_re", lambda exp, povm: povm.pi0[1, 1].real),
    ("im_plus", lambda exp, povm: exp["im_plus"]),
    ("cat_plus", lambda exp, povm: exp["cat_plus"]),
)


def _check_error_bar_width(alpha: float, alpha_sigma: float) -> None:
    """``error_bars`` needs 0 <= sigma < alpha: both alpha -+ sigma stay positive."""
    if not 0.0 <= alpha_sigma < alpha:  # also rejects NaN
        raise ValueError(f"error_bars_sigma must lie in [0, alpha) = [0, {alpha!r}), got {alpha_sigma!r}")


def error_bars(run: TomographyRun, alpha_sigma: float) -> dict:
    """Systematic-error envelopes from re-running at alpha +- sigma.

    The click data are fixed; only the assumed probe amplitude moves.  The
    fit of ``run`` (q+-, the series statistics and their box fits) reads
    no alpha, so each shifted run re-does only the alpha-dependent assembly
    on it: the synthesized expectations, the probe states and the MLE, all
    in the 2x2 cat basis with no Fock cutoff.  Each reported scalar gets a
    ``(lo, hi)`` interval over the central and the two shifted runs, which
    by construction contains the central value.
    """
    _check_error_bar_width(run.probes.alpha, alpha_sigma)
    q = (run.expectations["q_plus"], run.expectations["q_minus"])
    runs = [(run.expectations, run.povm)]
    for shifted in (run.probes.alpha - alpha_sigma, run.probes.alpha + alpha_sigma):
        probes = ProbeSet(alpha=shifted, gammas=run.probes.gammas)
        (expectations,), (povm,) = _assemble(probes, [q], [run.phi[0]], [run.psi[0]])
        runs.append((expectations, povm))
    out = {}
    for name, extract in _REPORTED_SCALARS:
        vals = [extract(*r) for r in runs]
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
    "povm_pair_fidelity",
    "probe_coefficients",
    "series_bound",
    "solve_phi",
    "tomography_pipeline",
]
