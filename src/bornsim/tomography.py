"""Density-matrix inference from post-selected click statistics.

A four-mode state is probed in the 16 Pauli-product directions through 9 fixed
settings, the products of one Z, X or Y eigenbasis per factor: the mode
direction is rotated into each setting, the conditional single-click
probabilities are computed exactly, and their eigenvalue-weighted sums estimate
the 16 expectation values. Both reconstructions start from S = sum_k m_k B_k
and its one eigendecomposition. Linear inversion returns S / Tr S (possibly
indefinite). The constrained fit minimizes the squared expectation residuals
over density matrices; because the basis is Hilbert-Schmidt orthonormal and
complete, its exact minimizer keeps the eigenvectors of S and projects the
eigenvalues onto the probability simplex (Smolin, Gambetta & Smith, PRL 108,
070502, 2012; the projection of Duchi et al., ICML 2008), exactly. Measurement,
reconstruction, fidelity and the PPT witness act on stacks of states; one state
is one row. The scans measure, reconstruct and score a grid one block of whole
alpha rows at a time, so only their scores, never the expectation vectors or
density matrices, are grid-sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .detection import _conditional_clicks, gamma_of, visibility_single
from .errors import BornsimError
from .experiments import ScenarioResult, _write_csv, _write_json
from .field import RngStream

__all__ = [
    "SweepResult",
    "fidelity",
    "partial_transpose",
    "ppt_witness",
    "bell_direction",
    "bell_witness_scan",
    "fidelity_scan",
    "ensemble_sweep",
]

# The measurement, fixed at import. _BASIS holds the 16 Pauli products / 2 in IXYZ x IXYZ
# order, orthonormal under Tr[B_j^dag B_k]. A factor's Pauli p is measured in the
# eigenbasis s(p) of Z, X or Y (s(I) = s(Z) = 0, s(X) = 1, s(Y) = 2), so the settings are
# the 9 products of those eigenbases, stored as U^dag: product k is measured in setting
# _SETTING_OF[k] = 3 s(p1) + s(p2), where U^dag B_k U = diag(_EIGENVALUES[k]).
_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                   dtype=complex)
_EIGENBASES = np.array([np.eye(2), [[1, 1], [1, -1]], [[1, 1], [1j, -1j]]], dtype=complex)
_EIGENBASES[1:] /= np.sqrt(2.0)
_PAULI_EIGENVALUES = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
_PAULI_SETTING = (0, 1, 2, 0)

_BASIS = np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS]) / 2.0
_EIGENVALUES = np.array([np.kron(a, b) for a in _PAULI_EIGENVALUES
                         for b in _PAULI_EIGENVALUES]) / 2.0
_SETTINGS = np.array([np.kron(a, b) for a in _EIGENBASES
                      for b in _EIGENBASES]).conj().transpose(0, 2, 1)
_SETTING_OF = np.array([3 * s + t for s in _PAULI_SETTING for t in _PAULI_SETTING])


# ---------------------------------------------------------------------------
# Measurement and reconstruction
# ---------------------------------------------------------------------------

def _measure_batch(psis: np.ndarray, alpha, gamma) -> np.ndarray:
    """m vectors (..., n, 16) for n states (n, 4); one Marcum evaluation per call.

    alpha and gamma broadcast against each other to the leading shape (...);
    two scalars give (n, 16). Each state is rotated into the 9 settings, and the
    click probabilities of a setting serve every product it diagonalizes.
    """
    alpha, gamma = np.abs(np.asarray(alpha)), np.asarray(gamma)
    amps = alpha[..., None, None, None] * np.abs(np.einsum("kij,nj->nki", _SETTINGS, psis))
    p = _conditional_clicks(amps, gamma[..., None, None, None])
    return np.einsum("...nki,ki->...nk", p[..., _SETTING_OF, :], _EIGENVALUES)


def _reconstruct(m: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices (..., 4, 4) from expectation vectors stacked as (..., 16), and
    the least eigenvalue of the linear inversion (...), w_0(S) / Tr S.

    S = sum_k m_k B_k is formed once; a nonpositive Tr S is a BornsimError.
    "linear" returns S / Tr S, Hermitian and possibly indefinite. "mle" returns
    the density matrix that minimizes sum_k (Tr[rho B_k] - m_k)^2 = ||rho - S||_F^2.
    """
    s = np.einsum("...k,kij->...ij", m, _BASIS)
    tr = np.real(np.trace(s, axis1=-2, axis2=-1))
    if np.any(tr <= 0.0):
        raise BornsimError("reconstructed matrix has nonpositive trace")
    w, v = np.linalg.eigh(s)
    least = w[..., 0] / tr
    if method == "linear":
        return s / tr[..., None, None], least
    # Euclidean projection of w onto the probability simplex (Duchi et al.
    # 2008): eigh sorts ascending, and the rule walks the values descending
    u = w[..., ::-1]
    shift = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
    n_kept = np.sum(u > shift, axis=-1, keepdims=True)
    lam = np.maximum(w - np.take_along_axis(shift, n_kept - 1, axis=-1), 0.0)
    rho = (v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2)), least


# Mode amplitudes (grid points x states x 16 basis products x 4 modes) per block; the
# 16 products are measured in 9 settings.
# Measured over 2^13..2^16 (fresh-process peak RSS, in-process time): 2^14 is the
# largest cap at which fidelity-contour --fast (one alpha row, 15,360 amplitudes)
# is scored one row per block, peaking at 38.0 MiB against 38.5 at 2^15 and
# 39.3 at 2^16, which are 19% and 27% faster; 2^13 lowers only fidelity's peak
# (37.6 against 37.9 MiB) and costs it 17% more time in twice as many blocks.
_BLOCK_AMPLITUDES = 2 ** 14


def _scored_grid(psis: np.ndarray, alphas: np.ndarray, gammas: np.ndarray, method: str,
                 score: Callable) -> list[np.ndarray]:
    """The arrays score(rho, indefinite) returns, joined over the alpha axis.

    Every state (n, 4) is measured at every (alpha, gamma) grid point, in
    blocks of whole alpha rows of at most _BLOCK_AMPLITUDES mode amplitudes
    (and at least one row). Each block is reconstructed and scored before the
    next is measured: score gets its density matrices (rows, n_gamma, n, 4, 4)
    and indefinite-linear-inversion flags (rows, n_gamma, n) and returns a
    tuple of arrays with leading axis rows, so only the scores outlive a block.
    The method is checked before any measurement.
    """
    if method not in ("linear", "mle"):
        raise BornsimError(f"method must be 'linear' or 'mle' (got {method!r})")
    rows = max(1, _BLOCK_AMPLITUDES // (gammas.size * psis.size * 16))
    blocks = []
    for i in range(0, max(alphas.size, 1), rows):  # an empty grid is one empty block
        m = _measure_batch(psis, alphas[i:i + rows, None], gammas)
        rho, least = _reconstruct(m, method)
        blocks.append(score(rho, least < -1e-12))
    return [np.concatenate(scores) for scores in zip(*blocks)]


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Overlap <psi| rho |psi>, clamped to its real part.

    psi (..., d) and rho (..., d, d) broadcast against each other; one state
    and one matrix give a float.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (psi.shape[-1],) * 2:
        raise BornsimError(f"rho shape {rho.shape} does not match psi length {psi.shape[-1]}")
    return np.real((psi.conj()[..., None, :] @ rho @ psi[..., :, None])[..., 0, 0])


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second factor of (a stack of) 4 x 4 matrices, partitioned 2 x 2."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise BornsimError(f"rho shape {rho.shape} does not factor as 2x2")
    lead = rho.shape[:-2]
    return rho.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(lead + (4, 4))


def ppt_witness(rho: np.ndarray) -> float | np.ndarray:
    """Least eigenvalue of the partial transpose, per matrix; negative certifies entanglement."""
    return np.linalg.eigvalsh(partial_transpose(rho)).min(axis=-1)


# ---------------------------------------------------------------------------
# Scans and sweeps
# ---------------------------------------------------------------------------

def bell_direction() -> np.ndarray:
    """(|R,H> + |D,V>)/sqrt(2) in the [RH, RV, DH, DV] basis."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def haar_states(n_states: int, rng: RngStream) -> np.ndarray:
    """n Haar-random pure four-mode directions, one substream per state.

    A normalized standard complex Gaussian vector is uniform on the unit sphere:
    state s is column 0 of substream s's 4 x 4 draw over its norm. All 16 normals
    are drawn so that it is column 0 of the Haar unitary (QR) of that draw.
    """
    z = np.array([rng.substream(s).complex_normals((4, 4))[:, 0] for s in range(n_states)])
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def bell_witness_scan(alphas: np.ndarray, th: float, psi: np.ndarray | None = None):
    """PPT witness (2 x 2 partition) and fidelity of the constrained reconstruction of
    the four-mode state ``psi``, the Bell direction by default, versus amplitude."""
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    psi = bell_direction() if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise BornsimError(f"the 2 x 2 witness takes a four-mode psi (got shape {psi.shape})")

    def score(rho, _):
        rho = rho[:, 0, 0]
        return ppt_witness(rho), fidelity(psi, rho), np.linalg.eigvalsh(rho)[:, 0]

    witness, fid, least = _scored_grid(psi[None], alphas, np.array([g]), "mle", score)
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic={"witness": witness, "fidelity": fid, "min_eigenvalue": least},
        meta={"gamma": g, "method": "mle", "psi": [repr(c) for c in psi]},
    )


def fidelity_scan(alphas: np.ndarray, th: float, n_states: int, rng: RngStream, method: str,
                  psis: np.ndarray | None = None):
    """Reconstruction fidelity of an ensemble of pure states versus amplitude.

    The ensemble is n_states four-mode Haar states, or the rows of ``psis``
    (n, 4), which then set the ensemble size; any other shape is a
    BornsimError, raised before any measurement.
    Returns a ScenarioResult whose per-state curves are fid_state_XX columns,
    with valid_state_XX flags (no negative eigenvalues) for the linear method.
    """
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    if psis is not None:
        psis = np.asarray(psis, dtype=complex)
        if psis.shape[1:] != (4,):
            raise BornsimError(f"psis must be four-mode rows (n, 4) (got shape {psis.shape})")
        n_states = len(psis)
    if n_states < 1:
        raise BornsimError("n_states must be >= 1")
    if psis is None:
        psis = haar_states(n_states, rng)
    fids, valid = _scored_grid(psis, alphas, np.array([g]), method,
                               lambda rho, indefinite: (fidelity(psis, rho[:, 0]),
                                                        ~indefinite[:, 0]))
    analytic = {"fid_mean": fids.mean(axis=1), "frac_invalid": 1.0 - valid.mean(axis=1)}
    for s in range(n_states):
        analytic[f"fid_state_{s:02d}"] = fids[:, s]
        analytic[f"valid_state_{s:02d}"] = valid[:, s].astype(float)
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic=analytic,
        meta={"gamma": g, "method": method, "n_states": n_states, "d": 4,
              "seed": rng.seed, "stream_id": rng.stream_id},
    )


@dataclass
class SweepResult:
    """Ensemble tomography metrics on an (alpha, gamma) grid."""

    alphas: np.ndarray
    gammas: np.ndarray
    mean_fidelity: np.ndarray    # (n_alpha, n_gamma)
    frac_invalid: np.ndarray
    mean_visibility: np.ndarray
    mean_ppt_witness: np.ndarray
    per_state_fidelity: np.ndarray  # (n_alpha, n_gamma, n_states)
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        a, g = np.meshgrid(self.alphas, self.gammas, indexing="ij")
        _write_csv(path, {"alpha": a.ravel(), "gamma": g.ravel(),
                          "mean_fidelity": self.mean_fidelity.ravel(),
                          "frac_invalid": self.frac_invalid.ravel(),
                          "mean_visibility": self.mean_visibility.ravel(),
                          "mean_ppt_witness": self.mean_ppt_witness.ravel()})

    def to_json(self, path) -> None:
        _write_json(path, {
            "meta": self.meta,
            "alphas": self.alphas,
            "gammas": self.gammas,
            "mean_fidelity": self.mean_fidelity,
            "frac_invalid": self.frac_invalid,
            "mean_visibility": self.mean_visibility,
            "mean_ppt_witness": self.mean_ppt_witness,
            "per_state_fidelity": self.per_state_fidelity,
        })


def ensemble_sweep(alphas: np.ndarray, gammas: np.ndarray, n_states: int,
                   rng: RngStream) -> SweepResult:
    """Mean tomography metrics over a four-mode Haar ensemble on an (alpha, gamma) grid.

    Per grid point: ensemble-mean fidelity, fraction of indefinite linear
    reconstructions, the fringe visibility of the full amplitude at that
    threshold, and the mean PPT witness of the reconstruction (2 x 2 partition).
    The ensemble is drawn once, one substream per state, and every grid
    point is measured elementwise, so a sub-grid sweep still equals the
    matching slice of the full one.
    """
    if n_states < 1:
        raise BornsimError("n_states must be >= 1")
    alphas = np.asarray(alphas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    psis = haar_states(n_states, rng)
    per_state, indefinite, witness = _scored_grid(
        psis, alphas, gammas, "mle",
        lambda rho, indefinite: (fidelity(psis, rho), indefinite, ppt_witness(rho)))
    mean_vis = visibility_single(alphas[:, None], gammas)
    return SweepResult(
        alphas=alphas, gammas=gammas, mean_fidelity=per_state.mean(axis=-1),
        frac_invalid=indefinite.mean(axis=-1), mean_visibility=mean_vis,
        mean_ppt_witness=witness.mean(axis=-1),
        per_state_fidelity=per_state,
        meta={"d": 4, "n_states": n_states, "method": "mle",
              "seed": rng.seed, "stream_id": rng.stream_id},
    )
