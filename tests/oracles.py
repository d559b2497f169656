"""The pure-loss channel on POVM elements, in Fock space: test oracles.

The detector models fold loss into their outcome weights
(``povm._outcome_weights``), and the tomography sweep undoes it by
re-reading the clicks at probe amplitudes scaled by sqrt(eta).  These
functions model the same channel a second way, on assembled operators:

* ``apply_loss`` maps a pair through the loss-channel adjoint (the
  Heisenberg picture).  The tests check it against the Kraus sum, and
  check the apparatus model's loss weights against it.
* ``compensate_loss`` inverts ``apply_loss`` and repairs the result to a
  physical pair.  The tests check the round trip, and check that it
  commutes with a displacement scaled by sqrt(eta): the Fock-space form of
  the sweep's probe rescaling.

Both read the log-space loss map L from ``povm._loss_log_map``, the one
the apparatus model's weights are built from.
"""

from __future__ import annotations

import numpy as np

from catproj.povm import PovmPair, _loss_log_map


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
