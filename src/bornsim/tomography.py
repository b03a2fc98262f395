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
projection of Duchi et al., ICML 2008). Reconstruction, fidelity and the
PPT witness all act on stacks of states, so scans run as array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import Threshold, gamma_of, visibility_single
from .errors import DimensionMismatchError, DomainError, InvalidDimensionError
from .experiments import ScenarioResult, _conditional_clicks
from .field import CoherentVector, RngStream
from .optics import haar_unitary

__all__ = [
    "HermitianBasis",
    "MLEResult",
    "TomographyReport",
    "SweepResult",
    "build_basis",
    "measure_expectations",
    "linear_qst",
    "mle_qst",
    "fidelity",
    "partial_transpose",
    "ppt_witness",
    "tomography_report",
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
    """d^2 Hermitian matrices, orthonormal under Tr[B_j^dag B_k], with eigensystems."""

    matrices: np.ndarray       # (d^2, d, d)
    diagonalizers: np.ndarray  # (d^2, d, d); U_k^dag B_k U_k = diag(eigenvalues[k])
    eigenvalues: np.ndarray    # (d^2, d)

    @property
    def d(self) -> int:
        return self.matrices.shape[1]

    @property
    def size(self) -> int:
        return self.matrices.shape[0]


def _gell_mann(d: int) -> list[np.ndarray]:
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / math.sqrt(2.0)
            asym[k, j] = 1j / math.sqrt(2.0)
            mats.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) / math.sqrt(l * (l + 1)))
    return mats


def build_basis(d: int) -> HermitianBasis:
    """Hilbert-Schmidt-orthonormal Hermitian basis with precomputed eigensystems.

    d = 2 uses the scaled Paulis, d = 4 their pairwise Kronecker products
    (diagonalized by local product settings); other d uses generalized
    Gell-Mann matrices plus the scaled identity.
    """
    d = int(d)
    if d < 2:
        raise InvalidDimensionError("build_basis needs d >= 2")
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
        mats = _gell_mann(d)
        diags, eigs = [], []
        for b in mats:
            w, v = np.linalg.eigh(b)
            diags.append(v)
            eigs.append(w)
    return HermitianBasis(
        matrices=np.array(mats),
        diagonalizers=np.array(diags),
        eigenvalues=np.array(eigs, dtype=float),
    )


# ---------------------------------------------------------------------------
# Measurement and reconstruction
# ---------------------------------------------------------------------------

def measure_expectations(state: CoherentVector, th: Threshold | float,
                         basis: HermitianBasis) -> np.ndarray:
    """Expectation estimate m_k = sum_i p_i beta_ki from post-selected clicks.

    For each basis element the mode direction is rotated to U_k^dag psi and
    the exact conditional single-click probabilities p_i weight the
    eigenvalues beta_ki. This is the one-state case of the batched path.
    """
    if basis.d != state.d:
        raise DimensionMismatchError(f"basis is {basis.d}-mode, state is {state.d}-mode")
    return _measure_batch(state.psi[None], state.alpha, gamma_of(th), basis)[0]


def _measure_batch(psis: np.ndarray, alpha: float, gamma: float,
                   basis: HermitianBasis) -> np.ndarray:
    """m vectors (n, d^2) for n states (n, d); one Marcum evaluation per call."""
    uh = basis.diagonalizers.conj().transpose(0, 2, 1)
    amps = np.abs(alpha) * np.abs(np.einsum("kij,nj->nki", uh, psis))
    p = _conditional_clicks(amps, gamma)
    return np.einsum("nki,ki->nk", p, basis.eigenvalues)


def linear_qst(m: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Linear inversion rho = sum_k m_k B_k, rescaled to unit trace.

    m may stack expectation vectors as (..., d^2); rho is then (..., d, d).
    Hermitian by construction; eigenvalues may be negative. The trace
    rescaling deviation is available via tomography_report.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] != (basis.size,):
        raise DimensionMismatchError(f"need {basis.size} expectation values, got shape {m.shape}")
    rho = np.einsum("...k,kij->...ij", m, basis.matrices)
    tr = np.real(np.trace(rho, axis1=-2, axis2=-1))
    if np.any(tr <= 0.0):
        raise DomainError("reconstructed matrix has nonpositive trace")
    return rho / tr[..., None, None]


def linear_qst_trace(m: np.ndarray, basis: HermitianBasis) -> float:
    """Trace of the raw linear inversion before rescaling."""
    m = np.asarray(m, dtype=float)
    rho = np.einsum("k,kij->ij", m, basis.matrices)
    return float(np.real(np.trace(rho)))


@dataclass(frozen=True)
class MLEResult:
    rho: np.ndarray
    objective: float
    converged: bool
    n_iter: int


def _constrained_fit(m: np.ndarray, basis: HermitianBasis) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form constrained fit of expectation vectors stacked as (..., d^2).

    Returns the density matrices (..., d, d) and their objectives (...),
    sum_k (Tr[rho B_k] - m_k)^2 = ||rho - sum_k m_k B_k||_F^2, which for the
    shared eigenvectors is the squared shift of the eigenvalues.
    """
    w, v = np.linalg.eigh(np.einsum("...k,kij->...ij", m, basis.matrices))
    # Euclidean projection of w onto the probability simplex (Duchi et al.
    # 2008): eigh sorts ascending, and the rule walks the values descending
    u = w[..., ::-1]
    shift = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
    n_kept = np.sum(u > shift, axis=-1, keepdims=True)
    lam = np.maximum(w - np.take_along_axis(shift, n_kept - 1, axis=-1), 0.0)
    rho = (v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho, np.sum((lam - w) ** 2, axis=-1)


def mle_qst(m: np.ndarray, basis: HermitianBasis) -> MLEResult:
    """Positive-semidefinite least-squares fit of the expectation vector.

    Minimizes sum_k (Tr[rho B_k] - m_k)^2 over unit-trace positive
    semidefinite rho. The basis is Hilbert-Schmidt orthonormal and complete,
    so the objective equals ||rho - sum_k m_k B_k||_F^2, and its exact
    minimizer keeps the eigenvectors of sum_k m_k B_k and replaces the
    eigenvalues by their Euclidean projection onto the probability simplex
    (Smolin, Gambetta & Smith, PRL 108, 070502, 2012; Duchi et al., ICML
    2008). The solution is exact, so converged is always True and n_iter 0.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (basis.size,):
        raise DimensionMismatchError(f"need {basis.size} expectation values, got shape {m.shape}")
    rho, objective = _constrained_fit(m, basis)
    return MLEResult(rho=rho, objective=float(objective), converged=True, n_iter=0)


def _reconstruct(ms: np.ndarray, basis: HermitianBasis,
                 method: str) -> tuple[np.ndarray, np.ndarray]:
    """Scored states and indefinite-linear-inversion flags for stacked m vectors."""
    rho_lin = linear_qst(ms, basis)
    indefinite = np.linalg.eigvalsh(rho_lin)[..., 0] < -1e-12
    rho = rho_lin if method == "linear" else _constrained_fit(ms, basis)[0]
    return rho, indefinite


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float | np.ndarray:
    """Overlap <psi| rho |psi>, clamped to its real part.

    psi (..., d) and rho (..., d, d) broadcast against each other; one state
    and one matrix give a float.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (psi.shape[-1],) * 2:
        raise DimensionMismatchError(f"rho shape {rho.shape} does not match psi length {psi.shape[-1]}")
    return np.real((psi.conj()[..., None, :] @ rho @ psi[..., :, None])[..., 0, 0])


def partial_transpose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second tensor factor of (a stack of) (d_a x d_b)-partitioned matrices."""
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = int(d_a), int(d_b)
    if rho.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatchError(f"rho shape {rho.shape} does not factor as {d_a}x{d_b}")
    lead = rho.shape[:-2]
    r = rho.reshape(lead + (d_a, d_b, d_a, d_b))
    return r.swapaxes(-3, -1).reshape(lead + (d_a * d_b, d_a * d_b))


def ppt_witness(rho: np.ndarray, d_a: int, d_b: int) -> float | np.ndarray:
    """Minimum eigenvalue of the partial transpose, per matrix of a stack;
    negative certifies entanglement for a 2 x 2 partition."""
    return np.linalg.eigvalsh(partial_transpose(rho, d_a, d_b)).min(axis=-1)


def _even_ppt_witness(rho: np.ndarray) -> np.ndarray:
    """PPT witness over the sqrt(d) x sqrt(d) partition; NaN when d is not a square."""
    d = rho.shape[-1]
    root = math.isqrt(d)
    if root * root != d:
        return np.full(rho.shape[:-2], np.nan)
    return ppt_witness(rho, root, root)


@dataclass(frozen=True)
class TomographyReport:
    rho: np.ndarray
    fidelity: float
    min_eigenvalue: float
    ppt_min_eigenvalue: float | None
    method: str
    converged: bool = True
    trace_deviation: float = 0.0
    objective: float = 0.0


def _check_method(method: str) -> None:
    if method not in ("linear", "mle"):
        raise DomainError(f"method must be 'linear' or 'mle' (got {method!r})")


def tomography_report(state: CoherentVector, th: Threshold | float,
                      basis: HermitianBasis | None = None,
                      method: str = "mle") -> TomographyReport:
    """Measure, reconstruct, and summarize one state."""
    basis = basis or build_basis(state.d)
    _check_method(method)
    m = measure_expectations(state, th, basis)
    trace_dev = abs(linear_qst_trace(m, basis) - 1.0)
    if method == "linear":
        rho = linear_qst(m, basis)
        converged, objective = True, 0.0
    else:
        result = mle_qst(m, basis)
        rho, converged, objective = result.rho, result.converged, result.objective
    ppt = float(_even_ppt_witness(rho))
    return TomographyReport(
        rho=rho,
        fidelity=float(fidelity(state.psi, rho)),
        min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        ppt_min_eigenvalue=None if math.isnan(ppt) else ppt,
        method=method,
        converged=converged,
        trace_deviation=trace_dev,
        objective=objective,
    )


# ---------------------------------------------------------------------------
# Scans and sweeps
# ---------------------------------------------------------------------------

def bell_direction() -> np.ndarray:
    """(|R,H> + |D,V>)/sqrt(2) in the [RH, RV, DH, DV] basis."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def haar_states(d: int, n_states: int, rng: RngStream) -> np.ndarray:
    """n Haar-random pure directions, one substream per state."""
    return np.array([haar_unitary(d, rng.substream(s))[:, 0] for s in range(n_states)])


def bell_witness_scan(alphas: np.ndarray, th: Threshold | float,
                      method: str = "mle",
                      psi: np.ndarray | None = None):
    """PPT witness and fidelity of the reconstructed Bell state versus amplitude."""
    _check_method(method)
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    psi = bell_direction() if psi is None else np.asarray(psi, dtype=complex)
    basis = build_basis(psi.size)
    rho = np.empty((alphas.size, psi.size, psi.size), dtype=complex)
    for i, a in enumerate(alphas):
        m = _measure_batch(psi[None], a, g, basis)[0]
        rho[i] = linear_qst(m, basis) if method == "linear" else mle_qst(m, basis).rho
    return ScenarioResult(
        grid_name="alpha",
        grid=alphas,
        analytic={"witness": _even_ppt_witness(rho), "fidelity": fidelity(psi, rho),
                  "min_eigenvalue": np.linalg.eigvalsh(rho)[:, 0]},
        meta={"gamma": g, "method": method, "psi": [repr(c) for c in psi]},
    )


def fidelity_scan(alphas: np.ndarray, th: Threshold | float, n_states: int,
                  rng: RngStream, d: int = 4, method: str = "linear",
                  psis: np.ndarray | None = None):
    """Reconstruction fidelity of an ensemble of pure states versus amplitude.

    Returns a ScenarioResult whose per-state curves are fid_state_XX columns,
    with valid_state_XX flags (no negative eigenvalues) for the linear method.
    """
    g = gamma_of(th)
    alphas = np.asarray(alphas, dtype=float)
    if psis is not None:
        psis = np.asarray(psis, dtype=complex)
        n_states, d = psis.shape
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    if psis is None:
        psis = haar_states(d, n_states, rng)
    basis = build_basis(d)
    ms = np.array([_measure_batch(psis, a, g, basis) for a in alphas])
    rho, indefinite = _reconstruct(ms, basis, method)
    fids = fidelity(psis, rho)
    valid = ~indefinite
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

    def argmax_fidelity(self) -> tuple[float, float, float]:
        """(alpha, gamma, value) of the best mean fidelity."""
        i, j = np.unravel_index(int(np.argmax(self.mean_fidelity)), self.mean_fidelity.shape)
        return float(self.alphas[i]), float(self.gammas[j]), float(self.mean_fidelity[i, j])

    def rows(self):
        for i, a in enumerate(self.alphas):
            for j, g in enumerate(self.gammas):
                yield (a, g, self.mean_fidelity[i, j], self.frac_invalid[i, j],
                       self.mean_visibility[i, j], self.mean_ppt_witness[i, j])

    def to_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["alpha", "gamma", "mean_fidelity", "frac_invalid",
                             "mean_visibility", "mean_ppt_witness"])
            for row in self.rows():
                writer.writerow([repr(float(v)) for v in row])

    def to_json(self, path) -> None:
        import json as _json
        from pathlib import Path as _Path

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
        _Path(path).write_text(_json.dumps(payload, indent=2, sort_keys=True) + "\n")


def ensemble_sweep(d: int, alphas: np.ndarray, gammas: np.ndarray, n_states: int,
                   method: str = "mle", rng: RngStream | None = None) -> SweepResult:
    """Mean tomography metrics over a Haar ensemble on an (alpha, gamma) grid.

    Per grid point: ensemble-mean fidelity, fraction of indefinite linear
    reconstructions, the fringe visibility of the full amplitude at that
    threshold, and (for d = 4) the mean PPT witness of the reconstruction.
    The ensemble is drawn once, one substream per state, and every grid
    point is reconstructed alone, so a sub-grid sweep equals the matching
    slice of the full one.
    """
    if n_states < 1:
        raise DomainError("n_states must be >= 1")
    rng = RngStream(0) if rng is None else rng
    alphas = np.asarray(alphas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    psis = haar_states(d, n_states, rng)
    basis = build_basis(d)
    ms = np.empty((alphas.size, gammas.size, n_states, basis.size))
    for i, a in enumerate(alphas):
        for j, g in enumerate(gammas):
            ms[i, j] = _measure_batch(psis, a, g, basis)
    mean_vis = visibility_single(alphas[:, None], gammas)
    rho, indefinite = _reconstruct(ms, basis, method)
    per_state = fidelity(psis, rho)
    return SweepResult(
        alphas=alphas, gammas=gammas, mean_fidelity=per_state.mean(axis=-1),
        frac_invalid=indefinite.mean(axis=-1), mean_visibility=mean_vis,
        mean_ppt_witness=_even_ppt_witness(rho).mean(axis=-1),
        per_state_fidelity=per_state,
        meta={"d": d, "n_states": n_states, "method": method,
              "seed": rng.seed, "stream_id": rng.stream_id},
    )
