"""Density-matrix inference from post-selected click statistics.

A state is probed in d^2 Hermitian basis directions: for each basis matrix
the mode direction is rotated into the matrix's eigenbasis, the conditional
single-click probabilities are computed exactly, and their eigenvalue-
weighted sum estimates the expectation value. Linear inversion reconstructs
rho = sum_k m_k B_k (possibly indefinite). The constrained fit minimizes the
squared expectation residuals over density matrices; because the basis is
Hilbert-Schmidt orthonormal and complete, its exact minimizer keeps the
eigenvectors of sum_k m_k B_k and projects the eigenvalues onto the
probability simplex (Smolin, Gambetta & Smith, PRL 108, 070502, 2012; the
projection of Duchi et al., ICML 2008), exactly. Measurement, reconstruction,
fidelity and the PPT witness act on stacks of states; one state is one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import _conditional_clicks, gamma_of, visibility_single
from .errors import BornsimError
from .experiments import ScenarioResult, _write_csv, _write_json
from .field import RngStream
from .optics import haar_unitary

__all__ = [
    "HermitianBasis",
    "SweepResult",
    "build_basis",
    "linear_qst",
    "fidelity",
    "partial_transpose",
    "ppt_witness",
    "bell_direction",
    "bell_witness_scan",
    "fidelity_scan",
    "ensemble_sweep",
]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Eigenvector matrices (columns) and eigenvalues of each Pauli, fixed once so
# the measurement settings are local and reproducible.
_PAULI_EIG = {
    "I": (np.eye(2, dtype=complex), np.array([1.0, 1.0])),
    "X": (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0), np.array([1.0, -1.0])),
    "Y": (np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0), np.array([1.0, -1.0])),
    "Z": (np.eye(2, dtype=complex), np.array([1.0, -1.0])),
}
_PAULI_ORDER = "IXYZ"


@dataclass(frozen=True)
class HermitianBasis:
    """d^2 Hermitian matrices, orthonormal under Tr[B_j^dag B_k], with eigensystems:
    the scaled Paulis (d = 2) or their pairwise Kronecker products (d = 4).

    Matrices that share a diagonalizer share its measurement setting: settings
    indexes one matrix per distinct diagonalizer, and setting_of maps each
    matrix to its setting's position in settings.
    """

    matrices: np.ndarray       # (d^2, d, d)
    diagonalizers: np.ndarray  # (d^2, d, d); U_k^dag B_k U_k = diag(eigenvalues[k])
    eigenvalues: np.ndarray    # (d^2, d)
    settings: np.ndarray       # (s,); diagonalizers[settings] are the distinct ones
    setting_of: np.ndarray     # (d^2,); diagonalizers[k] == diagonalizers[settings[setting_of[k]]]

    @property
    def size(self) -> int:
        return self.matrices.shape[0]


def build_basis(d: int) -> HermitianBasis:
    """Hilbert-Schmidt-orthonormal Hermitian basis with precomputed eigensystems.

    d = 2 uses the scaled Paulis, d = 4 their pairwise Kronecker products
    (diagonalized by local product settings); any other d, which no
    scenario measures, is a BornsimError.
    """
    d = int(d)
    if d == 2:
        mats = [_PAULI[p] / math.sqrt(2.0) for p in _PAULI_ORDER]
        diags = [_PAULI_EIG[p][0] for p in _PAULI_ORDER]
        eigs = [_PAULI_EIG[p][1] / math.sqrt(2.0) for p in _PAULI_ORDER]
    elif d == 4:
        mats, diags, eigs = [], [], []
        for p1 in _PAULI_ORDER:
            for p2 in _PAULI_ORDER:
                mats.append(np.kron(_PAULI[p1], _PAULI[p2]) / 2.0)
                diags.append(np.kron(_PAULI_EIG[p1][0], _PAULI_EIG[p2][0]))
                eigs.append(np.kron(_PAULI_EIG[p1][1], _PAULI_EIG[p2][1]) / 2.0)
    else:
        raise BornsimError(f"build_basis takes d = 2 or 4 (got {d})")
    # the first matrix with an exactly equal diagonalizer measures for each one
    first = [next(j for j in range(k + 1) if np.array_equal(diags[j], diags[k]))
             for k in range(len(diags))]
    settings, setting_of = np.unique(first, return_inverse=True)
    return HermitianBasis(
        matrices=np.array(mats),
        diagonalizers=np.array(diags),
        eigenvalues=np.array(eigs, dtype=float),
        settings=settings,
        setting_of=setting_of,
    )


# ---------------------------------------------------------------------------
# Measurement and reconstruction
# ---------------------------------------------------------------------------

def _measure_batch(psis: np.ndarray, alpha, gamma, basis: HermitianBasis) -> np.ndarray:
    """m vectors (..., n, d^2) for n states (n, d); one Marcum evaluation per call.

    alpha and gamma broadcast against each other to the leading shape (...);
    two scalars give (n, d^2). The click probabilities are computed once per
    distinct setting and shared by every matrix that setting diagonalizes.
    """
    alpha, gamma = np.abs(np.asarray(alpha)), np.asarray(gamma)
    uh = basis.diagonalizers.conj().transpose(0, 2, 1)
    rotated = np.abs(np.einsum("kij,nj->nki", uh, psis))[:, basis.settings]
    amps = alpha[..., None, None, None] * rotated
    p = _conditional_clicks(amps, gamma[..., None, None, None])
    return np.einsum("...nki,ki->...nk", p[..., basis.setting_of, :], basis.eigenvalues)


def linear_qst(m: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Linear inversion rho = sum_k m_k B_k, rescaled to unit trace.

    m may stack expectation vectors as (..., d^2); rho is then (..., d, d).
    Hermitian by construction; eigenvalues may be negative.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] != (basis.size,):
        raise BornsimError(f"need {basis.size} expectation values, got shape {m.shape}")
    rho = np.einsum("...k,kij->...ij", m, basis.matrices)
    tr = np.real(np.trace(rho, axis1=-2, axis2=-1))
    if np.any(tr <= 0.0):
        raise BornsimError("reconstructed matrix has nonpositive trace")
    return rho / tr[..., None, None]


def _constrained_fit(m: np.ndarray,
                     basis: HermitianBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form constrained fit of expectation vectors stacked as (..., d^2).

    Returns the density matrices (..., d, d), their objectives (...),
    sum_k (Tr[rho B_k] - m_k)^2 = ||rho - sum_k m_k B_k||_F^2, which for the
    shared eigenvectors is the squared shift of the eigenvalues, and the least
    eigenvalue of the linear inversion (...), w_0(S) / Tr S for S = sum_k m_k B_k.
    """
    s = np.einsum("...k,kij->...ij", m, basis.matrices)
    w, v = np.linalg.eigh(s)
    # Euclidean projection of w onto the probability simplex (Duchi et al.
    # 2008): eigh sorts ascending, and the rule walks the values descending
    u = w[..., ::-1]
    shift = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
    n_kept = np.sum(u > shift, axis=-1, keepdims=True)
    lam = np.maximum(w - np.take_along_axis(shift, n_kept - 1, axis=-1), 0.0)
    rho = (v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    least = w[..., 0] / np.real(np.trace(s, axis1=-2, axis2=-1))
    return rho, np.sum((lam - w) ** 2, axis=-1), least


# mode amplitudes (grid points x states x d^2 settings x d modes) per measurement block
_BLOCK_AMPLITUDES = 2 ** 16


def _reconstruct_grid(psis: np.ndarray, alphas: np.ndarray, gammas: np.ndarray,
                      method: str) -> tuple[np.ndarray, np.ndarray]:
    """Scored states (n_alpha, n_gamma, n, d, d) and indefinite-linear-inversion flags.

    Every state (n, d) is measured at every (alpha, gamma) grid point, in
    blocks of whole alpha rows of at most _BLOCK_AMPLITUDES mode amplitudes
    (and at least one row); the method is checked before any measurement.
    """
    _check_method(method)
    basis = build_basis(psis.shape[-1])
    ms = np.empty((alphas.size, gammas.size, len(psis), basis.size))
    rows = max(1, _BLOCK_AMPLITUDES // (gammas.size * psis.size * basis.size))
    for i in range(0, alphas.size, rows):
        ms[i:i + rows] = _measure_batch(psis, alphas[i:i + rows, None], gammas, basis)
    if method == "linear":
        rho = linear_qst(ms, basis)
        return rho, np.linalg.eigvalsh(rho)[..., 0] < -1e-12
    rho, _, least = _constrained_fit(ms, basis)
    # least differs from min eig(S / tr S) by rounding, far below its 4.4e-5 margin at seed 42
    return rho, least < -1e-12


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


def partial_transpose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second tensor factor of (a stack of) (d_a x d_b)-partitioned matrices."""
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = int(d_a), int(d_b)
    if rho.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise BornsimError(f"rho shape {rho.shape} does not factor as {d_a}x{d_b}")
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (d_a, d_b, d_a, d_b))
    return r.swapaxes(-3, -1).reshape(lead + (d_a * d_b, d_a * d_b))


def ppt_witness(rho: np.ndarray, d_a: int, d_b: int) -> float | np.ndarray:
    """Minimum eigenvalue of the partial transpose, per matrix of a stack;
    negative certifies entanglement for a 2 x 2 partition."""
    return np.linalg.eigvalsh(partial_transpose(rho, d_a, d_b)).min(axis=-1)


def _check_method(method: str) -> None:
    if method not in ("linear", "mle"):
        raise BornsimError(f"method must be 'linear' or 'mle' (got {method!r})")


# ---------------------------------------------------------------------------
# Scans and sweeps
# ---------------------------------------------------------------------------

def bell_direction() -> np.ndarray:
    """(|R,H> + |D,V>)/sqrt(2) in the [RH, RV, DH, DV] basis."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def haar_states(n_states: int, rng: RngStream) -> np.ndarray:
    """n Haar-random pure four-mode directions, one substream per state."""
    return haar_unitary(4, [rng.substream(s) for s in range(n_states)])[:, :, 0]


def bell_witness_scan(alphas: np.ndarray, th: float, psi: np.ndarray | None = None):
    """PPT witness (2 x 2 partition) and fidelity of the constrained reconstruction of
    the four-mode state ``psi``, the Bell direction by default, versus amplitude."""
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    psi = bell_direction() if psi is None else np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise BornsimError(f"the 2 x 2 witness takes a four-mode psi (got shape {psi.shape})")
    rho = _reconstruct_grid(psi[None], alphas, np.array([g]), "mle")[0][:, 0, 0]
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic={"witness": ppt_witness(rho, 2, 2), "fidelity": fidelity(psi, rho),
                  "min_eigenvalue": np.linalg.eigvalsh(rho)[:, 0]},
        meta={"gamma": g, "method": "mle", "psi": [repr(c) for c in psi]},
    )


def fidelity_scan(alphas: np.ndarray, th: float, n_states: int,
                  rng: RngStream, method: str,
                  psis: np.ndarray | None = None):
    """Reconstruction fidelity of an ensemble of pure states versus amplitude.

    The ensemble is n_states four-mode Haar states, or the rows of ``psis``
    (n, d), which then set both the ensemble size and the dimension, d = 2 or
    4; any other d is a BornsimError, raised before any measurement.
    Returns a ScenarioResult whose per-state curves are fid_state_XX columns,
    with valid_state_XX flags (no negative eigenvalues) for the linear method.
    """
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    d = 4
    if psis is not None:
        psis = np.asarray(psis, dtype=complex)
        n_states, d = psis.shape
    if n_states < 1:
        raise BornsimError("n_states must be >= 1")
    if psis is None:
        psis = haar_states(n_states, rng)
    rho, indefinite = _reconstruct_grid(psis, alphas, np.array([g]), method)
    fids = fidelity(psis, rho[:, 0])
    valid = ~indefinite[:, 0]
    analytic = {"fid_mean": fids.mean(axis=1), "frac_invalid": 1.0 - valid.mean(axis=1)}
    for s in range(n_states):
        analytic[f"fid_state_{s:02d}"] = fids[:, s]
        analytic[f"valid_state_{s:02d}"] = valid[:, s].astype(float)
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic=analytic,
        meta={"gamma": g, "method": method, "n_states": n_states, "d": d,
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
        payload = {
            "meta": self.meta,
            "alphas": self.alphas.tolist(),
            "gammas": self.gammas.tolist(),
            "mean_fidelity": self.mean_fidelity.tolist(),
            "frac_invalid": self.frac_invalid.tolist(),
            "mean_visibility": self.mean_visibility.tolist(),
            "mean_ppt_witness": self.mean_ppt_witness.tolist(),
            "per_state_fidelity": self.per_state_fidelity.tolist(),
        }
        _write_json(path, payload)


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
    rho, indefinite = _reconstruct_grid(psis, alphas, gammas, "mle")
    mean_vis = visibility_single(alphas[:, None], gammas)
    per_state = fidelity(psis, rho)
    return SweepResult(
        alphas=alphas, gammas=gammas, mean_fidelity=per_state.mean(axis=-1),
        frac_invalid=indefinite.mean(axis=-1), mean_visibility=mean_vis,
        mean_ppt_witness=ppt_witness(rho, 2, 2).mean(axis=-1),
        per_state_fidelity=per_state,
        meta={"d": 4, "n_states": n_states, "method": "mle",
              "seed": rng.seed, "stream_id": rng.stream_id},
    )
