import math

import numpy as np
import pytest
from scipy import optimize

from bornsim import CoherentVector, RngStream, marcum_q1, outcome_distribution, realize_batch
from bornsim.detection import detect_batch
from bornsim.errors import DimensionMismatchError, InvalidDimensionError
from bornsim.tomography import (
    _measure_batch,
    bell_direction,
    bell_witness_scan,
    build_basis,
    ensemble_sweep,
    fidelity,
    fidelity_scan,
    linear_qst,
    measure_expectations,
    mle_qst,
    partial_transpose,
    ppt_witness,
    tomography_report,
)


def random_density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.random(d)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * w) @ q.conj().T


def random_direction(d: int, seed: int) -> np.ndarray:
    psi = RngStream(seed).complex_normals(d)
    return psi / np.linalg.norm(psi)


def _unpack(x: np.ndarray, d: int) -> np.ndarray:
    """Lower-triangular T from d real diagonal entries and the real, then
    imaginary, parts of its strictly lower entries."""
    il = np.tril_indices(d, -1)
    t = np.zeros((d, d), dtype=complex)
    t[np.diag_indices(d)] = x[:d]
    t[il] = x[d:d + il[0].size] + 1j * x[d + il[0].size:]
    return t


def lbfgs_objective(x: np.ndarray, m: np.ndarray, basis) -> tuple[float, np.ndarray]:
    """sum_k (Tr[rho B_k] - m_k)^2 at rho = T T^dag / Tr[T T^dag], with its gradient."""
    d = basis.d
    t = _unpack(x, d)
    norm = np.real(np.sum(np.abs(t) ** 2))
    rho = (t @ t.conj().T) / norm
    s = np.real(np.einsum("ij,kji->k", rho, basis.matrices))
    r = s - m
    grad_mat = (2.0 / norm) * (np.einsum("k,kij->ij", r, basis.matrices) @ t - np.sum(r * s) * t)
    il = np.tril_indices(d, -1)
    grad = np.concatenate([2.0 * np.real(np.diag(grad_mat)),
                           2.0 * np.real(grad_mat[il]), 2.0 * np.imag(grad_mat[il])])
    return float(np.sum(r * r)), grad


def lbfgs_fit(m: np.ndarray, basis) -> tuple[np.ndarray, float]:
    """Reference constrained fit by L-BFGS over the Cholesky-like factor T.

    An iterative route to the minimum that mle_qst reaches in closed form,
    started from the linear inversion with negative eigenvalues clipped.
    """
    d = basis.d
    w, v = np.linalg.eigh(linear_qst(m, basis))
    w = np.clip(w, 0.0, None)
    start = np.linalg.cholesky((v * (w / w.sum())) @ v.conj().T + 1e-12 * np.eye(d))
    il = np.tril_indices(d, -1)
    x0 = np.concatenate([np.real(np.diag(start)), np.real(start[il]), np.imag(start[il])])
    res = optimize.minimize(lbfgs_objective, x0, args=(m, basis), jac=True, method="L-BFGS-B",
                            options=dict(maxiter=1000, maxfun=100_000, ftol=1e-16, gtol=1e-12))
    t = _unpack(res.x, d)
    rho = t @ t.conj().T
    return rho / np.real(np.trace(rho)), float(res.fun)


class TestBasis:
    def test_two_mode_is_scaled_paulis(self):
        b = build_basis(2)
        assert b.size == 4
        assert np.allclose(b.matrices[0], np.eye(2) / math.sqrt(2.0), atol=0)
        assert np.allclose(b.matrices[3], np.diag([1.0, -1.0]) / math.sqrt(2.0), atol=0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hilbert_schmidt_orthonormal(self, d):
        b = build_basis(d)
        g = np.einsum("kij,lji->kl", b.matrices.conj().transpose(0, 2, 1), b.matrices)
        assert np.max(np.abs(g - np.eye(d * d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hermitian_and_diagonalized(self, d):
        b = build_basis(d)
        for k in range(b.size):
            m = b.matrices[k]
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            u, w = b.diagonalizers[k], b.eigenvalues[k]
            assert np.max(np.abs(u.conj().T @ m @ u - np.diag(w))) < 1e-12

    def test_completeness(self):
        b = build_basis(4)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        rec = np.einsum("k,kij->ij",
                        np.real(np.einsum("ij,kji->k", a, b.matrices)), b.matrices)
        assert np.max(np.abs(rec - a)) < 1e-10

    def test_rejects_small_dimension(self):
        with pytest.raises(InvalidDimensionError):
            build_basis(1)


class TestMeasurement:
    def test_vacuum_gives_uniform_trace_moments(self):
        b = build_basis(4)
        state = CoherentVector(0.0, np.eye(4)[0].astype(complex))
        m = measure_expectations(state, 1.0, b)
        expected = np.array([np.real(np.trace(bk)) / 4 for bk in b.matrices])
        assert m == pytest.approx(expected, abs=1e-14)

    def test_bright_state_pins_population_moment(self):
        # the diag(1,-1)-like element reads +1/sqrt(2) when mode 1 dominates
        b = build_basis(2)
        state = CoherentVector(10.0, np.array([1.0, 0.0]))
        m = measure_expectations(state, 1.0, b)
        assert m[3] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)

    @pytest.mark.parametrize("d, alpha, g, seed", [
        (2, 0.7, 1.0, 1), (3, 1.4, 1.2, 2), (4, 1.0, 1.0, 3), (4, 2.2, 0.8, 4), (4, 0.3, 1.6, 5),
    ])
    def test_matches_outcome_table_oracle(self, d, alpha, g, seed):
        # brute force: the single-click entries of each rotated setting's 2^d table
        b = build_basis(d)
        psi = random_direction(d, seed)
        m = measure_expectations(CoherentVector(alpha, psi), g, b)
        oracle = np.empty(b.size)
        for k in range(b.size):
            psi_k = b.diagonalizers[k].conj().T @ psi
            state_k = CoherentVector(alpha, psi_k / np.linalg.norm(psi_k))
            singles = outcome_distribution(state_k, g).single_detection_probs()
            oracle[k] = singles / singles.sum() @ b.eigenvalues[k]
        assert np.max(np.abs(m - oracle)) <= 1e-14

    def test_batch_rows_equal_one_state_calls(self):
        # at alpha = 6, gamma = 0.5 some settings saturate a detector and some
        # do not, so one batch mixes limit-rule rows with ordinary ones
        b = build_basis(4)
        psis = np.array([random_direction(4, s) for s in range(8)])
        batch = _measure_batch(psis, 6.0, 0.5, b)
        for psi, row in zip(psis, batch):
            assert np.array_equal(row, measure_expectations(CoherentVector(6.0, psi), 0.5, b))
        amps = 6.0 * np.abs(np.einsum("kji,nj->nki", b.diagonalizers.conj(), psis))
        saturated = (marcum_q1(2.0 * amps, 1.0) == 1.0).any(axis=-1)
        assert saturated.any() and not saturated.all()

    def test_monte_carlo_post_selection_matches(self):
        # estimate the conditional click distribution in one rotated setting
        b = build_basis(4)
        alpha, g, n, k = 1.0, 1.0, 300_000, 5
        psi = bell_direction()
        psi_k = b.diagonalizers[k].conj().T @ psi
        psi_k /= np.linalg.norm(psi_k)
        state = CoherentVector(alpha, psi_k)
        from bornsim.experiments import conditional_mode_probs

        p = conditional_mode_probs(state, g)
        a = realize_batch(state, n, RngStream(70))
        bits = detect_batch(a, g)
        singles = bits.sum(axis=1) == 1
        kept = bits[singles]
        assert kept.shape[0] > 1000
        freq = kept.mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / kept.shape[0])
        assert np.all(np.abs(freq - p) < 5.0 * sigma + 1e-9)


class TestLinearInversion:
    def test_round_trip_on_valid_densities(self):
        b = build_basis(4)
        for seed in range(50):
            rho = random_density(4, seed)
            m = np.real(np.einsum("ij,kji->k", rho, b.matrices))
            assert np.max(np.abs(linear_qst(m, b) - rho)) < 1e-10

    def test_vacuum_reconstructs_maximally_mixed(self):
        b = build_basis(4)
        state = CoherentVector(0.0, np.eye(4)[0].astype(complex))
        rho = linear_qst(measure_expectations(state, 1.0, b), b)
        assert np.array_equal(rho, np.eye(4) / 4)

    def test_large_amplitude_goes_indefinite(self):
        b = build_basis(4)
        psi = random_direction(4, 11)
        m = measure_expectations(CoherentVector(3.0, psi), 1.0, b)
        rho = linear_qst(m, b)
        assert np.linalg.eigvalsh(rho).min() < -1e-6

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            linear_qst(np.zeros(5), build_basis(2))


class TestConstrainedFit:
    def test_recovers_valid_density(self):
        b = build_basis(4)
        rho = random_density(4, 42)
        m = np.real(np.einsum("ij,kji->k", rho, b.matrices))
        res = mle_qst(m, b)
        assert res.objective <= 1e-12
        assert np.max(np.abs(res.rho - rho)) < 1e-5
        assert res.converged

    def test_output_always_psd_unit_trace_hermitian(self):
        b = build_basis(4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(scale=0.3, size=16)
            m[0] = 0.5  # identity component fixes the trace
            res = mle_qst(m, b)
            w = np.linalg.eigvalsh(res.rho)
            assert w.min() >= -1e-10
            assert np.real(np.trace(res.rho)) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(res.rho - res.rho.conj().T)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        # the L-BFGS reference fit is only as good as its analytic gradient
        b = build_basis(4)
        rng = np.random.default_rng(1)
        m = rng.normal(scale=0.3, size=16)
        m[0] = 0.5
        x0 = rng.normal(size=16)
        numeric = optimize.approx_fprime(x0, lambda x: lbfgs_objective(x, m, b)[0], 1e-7)
        assert np.max(np.abs(lbfgs_objective(x0, m, b)[1] - numeric)) < 1e-5

    def test_deterministic(self):
        b = build_basis(4)
        m = measure_expectations(CoherentVector(1.0, bell_direction()), 1.0, b)
        r1 = mle_qst(m, b)
        r2 = mle_qst(m, b)
        assert np.array_equal(r1.rho, r2.rho)

    def test_objective_never_above_lbfgs(self):
        b = build_basis(4)
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(12):
            m = rng.normal(scale=0.3, size=16)
            m[0] = 0.5  # identity component fixes the trace
            cases.append(m)
        for seed in range(4):
            rho = random_density(4, seed)
            cases.append(np.real(np.einsum("ij,kji->k", rho, b.matrices)))
            psi = random_direction(4, 20 + seed)
            cases.append(measure_expectations(CoherentVector(3.0, psi), 1.0, b))
        indefinite = 0
        for m in cases:
            indefinite += np.linalg.eigvalsh(linear_qst(m, b)).min() < -1e-12
            res = mle_qst(m, b)
            assert res.objective <= lbfgs_fit(m, b)[1] + 1e-12
            assert np.linalg.eigvalsh(res.rho).min() >= -1e-12
            assert np.real(np.trace(res.rho)) == pytest.approx(1.0, abs=1e-12)
            assert res.converged and res.n_iter == 0
        assert indefinite >= 10


class TestFidelityAndWitness:
    def test_fidelity_of_projector_is_one(self):
        psi = random_direction(4, 5)
        assert fidelity(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_of_maximally_mixed(self):
        psi = random_direction(4, 6)
        assert fidelity(psi, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_bounds_on_valid_density(self):
        psi = random_direction(4, 7)
        rho = random_density(4, 8)
        assert -1e-12 <= fidelity(psi, rho) <= 1.0 + 1e-12

    def test_fidelity_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(np.array([1.0, 0.0]), np.eye(4) / 4)

    def test_partial_transpose_involution(self):
        rho = random_density(4, 9)
        assert np.array_equal(partial_transpose(partial_transpose(rho, 2, 2), 2, 2), rho)

    def test_partial_transpose_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(4), 3, 2)

    def test_product_state_is_ppt(self):
        rho = np.kron(random_density(2, 10), random_density(2, 11))
        assert ppt_witness(rho, 2, 2) >= -1e-10

    def test_ideal_bell_witness(self):
        psi = bell_direction()
        w = ppt_witness(np.outer(psi, psi.conj()), 2, 2)
        assert w == pytest.approx(-0.5, abs=1e-12)

    def test_reconstructed_bell_goes_negative(self):
        scan = bell_witness_scan(np.array([0.7, 1.0, 3.0]), 1.0)
        assert scan.analytic["witness"][0] < 0.0
        assert scan.analytic["witness"][2] == pytest.approx(-0.5, abs=0.02)


class TestReportsAndSweeps:
    def test_report_fields(self):
        rep = tomography_report(CoherentVector(1.0, bell_direction()), 1.0, method="mle")
        assert rep.method == "mle"
        assert rep.min_eigenvalue >= -1e-10
        assert rep.ppt_min_eigenvalue is not None
        assert 0.0 <= rep.fidelity <= 1.0 + 1e-9
        assert rep.trace_deviation < 1e-10

    def test_fidelity_scan_shapes_and_vacuum_value(self):
        res = fidelity_scan(np.array([0.0, 1.0]), 1.0, 3, RngStream(50), method="linear")
        assert res.analytic["fid_mean"].shape == (2,)
        assert res.analytic["fid_mean"][0] == pytest.approx(0.25, abs=1e-12)

    def test_ensemble_sweep_subgrid_equals_full_slice(self):
        alphas = np.array([0.5, 1.0, 3.0])
        gammas = np.array([0.75, 1.0, 1.5])
        full = ensemble_sweep(4, alphas, gammas, 3, rng=RngStream(60))
        for ia, ig in ((slice(1, None), slice(None, None, 2)), (slice(2, 3), slice(1, 2))):
            part = ensemble_sweep(4, alphas[ia], gammas[ig], 3, rng=RngStream(60))
            for name in ("mean_fidelity", "frac_invalid", "mean_visibility",
                         "mean_ppt_witness", "per_state_fidelity"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[ia, ig]), name

    def test_sweep_vacuum_column(self):
        res = ensemble_sweep(4, np.array([0.0]), np.array([1.0]), 4, rng=RngStream(61))
        assert res.per_state_fidelity[0, 0] == pytest.approx([0.25] * 4, abs=1e-12)

    def test_sweep_csv_schema(self, tmp_path):
        res = ensemble_sweep(4, np.array([0.5]), np.array([1.0]), 2, rng=RngStream(62))
        path = tmp_path / "sweep.csv"
        res.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "alpha,gamma,mean_fidelity,frac_invalid,mean_visibility,mean_ppt_witness"


def test_measurement_survives_saturated_detectors():
    # far above threshold one mode clicks with certainty at float precision;
    # the conditional limit concentrates there and the moment stays finite
    b = build_basis(2)
    m = measure_expectations(CoherentVector(30.0, np.array([1.0, 0.0])), 0.5, b)
    assert m[3] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    res = fidelity_scan(np.array([30.0]), 0.5, 2, RngStream(90), method="linear",
                        psis=np.array([[1.0 + 0.0j, 0.0j], [0.0j, 1.0 + 0.0j]]))
    assert np.all(np.isfinite(res.analytic["fid_mean"]))
