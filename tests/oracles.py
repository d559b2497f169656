"""Test oracles: second implementations that the package is checked against.

The pure-loss channel on POVM elements, in Fock space.  The detector models
fold loss into their outcome weights (``povm._outcome_weights``), and the
tomography sweep undoes it by re-reading the clicks at probe amplitudes
scaled by sqrt(eta).  These functions model the same channel a second way,
on assembled operators:

* ``apply_loss`` maps a pair through the loss-channel adjoint (the
  Heisenberg picture).  The tests check it against the Kraus sum, and
  check the apparatus model's loss weights against it.
* ``compensate_loss`` inverts ``apply_loss`` and repairs the result to a
  physical pair.  The tests check the round trip, and check that it
  commutes with a displacement scaled by sqrt(eta): the Fock-space form of
  the sweep's probe rescaling.

Both read the log-space loss map L from ``povm._loss_log_map``, the one
the apparatus model's weights are built from.

The reconstruction and the click draws, one table and one probe at a time:

* ``pipeline`` reconstructs one click table step by step, with one
  ``solve_phi`` per series and outcome and a likelihood fit of its own
  (``mle``), where the package reconstructs stacks of tables.
* ``fresh_philox_counts`` draws each probe's clicks from a new Philox
  generator keyed by ``(rng_seed, probe_index)``, where ``draw_counts``
  resets one generator per table.
"""

from __future__ import annotations

import math

import numpy as np

from catproj import tomography
from catproj.povm import PovmPair, _loss_log_map
from catproj.tomography import (
    ClickTable,
    ProbeSet,
    ScsPovm,
    TomographyRun,
    even_cat_probe_expectation,
    imaginary_probe_expectation,
    solve_phi,
)


def _loss_diagonal_maps(eta: float, n_max: int) -> list[np.ndarray]:
    """The loss adjoint sum_k A_k^dag pi A_k, with the binomial
    photon-subtraction Kraus operators A_k|n> = sqrt(B[n, n-k]) |n-k>, acts
    on each pair of matrix diagonals m - n = +-d on its own.  Returns, for
    each d, the lower-triangular M_d with (Lambda^dag pi)[j+d, j] =
    sum_i M_d[j, i] pi[i+d, i], and likewise above the diagonal:
    M_d[j, i] = sqrt(B[j+d, i+d] B[j, i]), built from L in log space."""
    L = _loss_log_map(float(eta), n_max)
    N = n_max + 1
    return [np.exp(0.5 * (L[d:, d:] + L[: N - d, : N - d])) for d in range(N)]


def _loss_adjoint(pi: np.ndarray, maps: list[np.ndarray]) -> np.ndarray:
    """Lambda^dag pi: one matrix-vector product per pair of diagonals."""
    out = np.zeros(pi.shape, dtype=complex)
    for d, M in enumerate(maps):
        idx = np.arange(pi.shape[0] - d)
        below, above = np.diagonal(pi, -d), np.diagonal(pi, d)
        out[idx + d, idx], out[idx, idx + d] = (M @ np.stack([below, above], axis=1)).T
    return out


def apply_loss(p: PovmPair, eta: float) -> PovmPair:
    """Map both POVM elements through the loss-channel adjoint.  The map is
    unital, so completeness is preserved exactly."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    maps = _loss_diagonal_maps(eta, p.dim.n_max)
    pi0 = _loss_adjoint(p.pi0.entries, maps)
    pi1 = _loss_adjoint(p.pi1.entries, maps)
    return PovmPair.checked(p.dim, pi0, pi1)


def compensate_loss(p: PovmPair, eta: float) -> tuple[PovmPair, dict]:
    """Inverse of apply_loss, followed by a physicality repair.

    The inverse is computed diagonal-by-diagonal (each matrix diagonal
    transforms under a lower-triangular map M_d, inverted with one solve).
    The inverted pi0 is then clipped to eigenvalues in [0, 1] and pi1 is
    recomputed as I - pi0 so the pair invariants hold.  Returns the pair
    and its diagnostics: the pre-repair spectral defects and the worst
    condition number of the M_d (empty at eta = 1, where nothing is
    inverted).
    """
    if not 0.1 < eta <= 1.0:
        raise ValueError(f"eta must be in (0.1, 1], got {eta}")
    if eta == 1.0:
        return PovmPair.checked(p.dim, p.pi0, p.pi1), {}
    N = p.dim.size
    pi0 = p.pi0.entries
    out = np.zeros_like(pi0, dtype=complex)
    max_cond = 0.0
    for d, M in enumerate(_loss_diagonal_maps(eta, p.dim.n_max)):
        max_cond = max(max_cond, float(np.linalg.cond(M)))
        x = np.linalg.solve(M, np.diagonal(pi0, offset=-d))
        idx = np.arange(N - d)
        out[idx + d, idx] = x
        if d > 0:
            out[idx, idx + d] = np.conj(x)
    if max_cond > 1e12:
        raise ValueError(f"loss inversion ill-conditioned: condition number {max_cond:.3e}")
    out = 0.5 * (out + out.conj().T)
    w, U = np.linalg.eigh(out)
    diag = {
        "pre_repair_min_eigenvalue": float(w[0]),
        "pre_repair_max_eigenvalue_excess": float(w[-1] - 1.0),
        "max_diagonal_condition": max_cond,
    }
    wc = np.clip(w, 0.0, 1.0)
    pi0c = (U * wc) @ U.conj().T
    pi0c = 0.5 * (pi0c + pi0c.conj().T)
    pi1c = np.eye(N) - pi0c
    return PovmPair.checked(p.dim, pi0c, pi1c), diag


def mle(rho: np.ndarray, freq: np.ndarray) -> ScsPovm:
    """The likelihood fit of one (4, 2) frequency table, with its own 4 x 4
    solve: the linear inversion when its spectrum lies in [0, 1], else
    ``tomography._barrier_newton``; the log-likelihood in ``diagnostics``."""
    pi0, diagnostics = None, {"iterations": 0, "converged": True, "final_delta": 0.0}
    try:
        a, b, re_c, im_c = np.linalg.solve(tomography._design(rho), freq[:, 0] / freq.sum(axis=1))
    except np.linalg.LinAlgError:
        pass
    else:
        c = complex(re_c, im_c)
        pi0 = np.array([[a, c], [c.conjugate(), b]])
        low, high = tomography._eigvals_2x2(pi0)
        if not (low >= 0.0 and high <= 1.0):
            pi0 = None
    if pi0 is None:
        pi0, diagnostics = tomography._barrier_newton(rho, freq)
    elements = (pi0, np.eye(2) - pi0)
    p = np.stack([np.einsum("ikl,lk->i", rho, pi).real for pi in elements], axis=1)
    diagnostics["log_likelihood"] = float(np.sum(freq * np.log(np.maximum(p, tomography.MLE_PROB_FLOOR))))
    return ScsPovm(*elements, diagnostics=diagnostics)


def pipeline(clicks: ClickTable, probes: ProbeSet) -> TomographyRun:
    """One table in probe order reconstructed on its own, read by position:
    both series statistics, one ``solve_phi`` per series and outcome, the
    synthesized expectations of the outcome-0 series and ``mle``."""
    rates = np.stack(clicks.rates())
    q = float(rates[0, 0]), float(rates[0, 1])
    scale = np.array([2.0 * math.exp(-g * g) for g in probes.gammas])
    f_odd = (rates[:, 2::2] + -1.0 * rates[:, 3::2]) / scale
    f_even = (rates[:, 2::2] + 1.0 * rates[:, 3::2]) / scale
    phi = tuple(solve_phi(f, probes, 1) for f in f_odd)
    psi = tuple(solve_phi(f, probes, 0) for f in f_even)
    im_plus, im_plus_raw = imaginary_probe_expectation(phi[0], probes.alpha, q, sign=+1)
    im_minus, im_minus_raw = imaginary_probe_expectation(phi[0], probes.alpha, q, sign=-1)
    cat_plus, cat_plus_raw = even_cat_probe_expectation(psi[0], probes.alpha, q)
    expectations = {
        "q_plus": q[0],
        "q_minus": q[1],
        "im_plus": im_plus,
        "im_plus_raw": im_plus_raw,
        "im_minus": im_minus,
        "im_minus_raw": im_minus_raw,
        "cat_plus": cat_plus,
        "cat_plus_raw": cat_plus_raw,
    }
    freq = np.array([[p, 1.0 - p] for p in (q[0], q[1], im_plus, cat_plus)])
    return TomographyRun(probes, clicks, f_odd, f_even, phi, psi, expectations, mle(probes.states, freq))


def fresh_philox_counts(rates, shots: int, rng_seed: int) -> np.ndarray:
    """Outcome-0 counts with a new Philox generator per probe, keyed by the
    unsigned 64-bit pair ``(rng_seed, probe_index)``."""
    counts = []
    for i, rate in enumerate(rates):
        key = np.array([rng_seed, i], dtype=np.uint64)
        counts.append(np.random.Generator(np.random.Philox(key=key)).binomial(shots, min(max(rate, 0.0), 1.0)))
    return np.array(counts, dtype=float)
