import dataclasses
import re

import numpy as np
import pytest
from scipy import optimize

from bornsim import RngStream, marcum_q1
from bornsim.detection import _conditional_clicks
from bornsim import tomography
from bornsim.errors import BornsimError
from bornsim.tomography import (
    _measure_batch,
    _reconstruct,
    bell_direction,
    bell_witness_scan,
    build_basis,
    ensemble_sweep,
    fidelity,
    fidelity_scan,
    partial_transpose,
    ppt_witness,
)
from oracles import CoherentVector, detect_batch, outcome_distribution, realize_batch


def random_density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.random(d)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * w) @ q.conj().T


def random_direction(d: int, seed: int) -> np.ndarray:
    psi = RngStream(seed).complex_normals(d)
    return psi / np.linalg.norm(psi)


def fit_objective(rho: np.ndarray, m: np.ndarray, basis) -> float:
    """sum_k (Tr[rho B_k] - m_k)^2 = ||rho - sum_k m_k B_k||_F^2 for the orthonormal basis."""
    return float(np.sum(np.abs(rho - np.einsum("k,kij->ij", m, basis.matrices)) ** 2))


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
    d = basis.matrices.shape[-1]
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

    An iterative route to the minimum that _reconstruct's "mle" reaches in closed
    form, started from the linear inversion with negative eigenvalues clipped.
    """
    d = basis.matrices.shape[-1]
    w, v = np.linalg.eigh(_reconstruct(m, basis, "linear")[0])
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
    @pytest.mark.parametrize("d", [4])
    def test_hilbert_schmidt_orthonormal(self, d):
        b = build_basis()
        assert b.matrices.shape == (d * d, d, d)
        g = np.einsum("kij,lji->kl", b.matrices.conj().transpose(0, 2, 1), b.matrices)
        assert np.max(np.abs(g - np.eye(d * d))) < 1e-12

    @pytest.mark.parametrize("d", [4])
    def test_hermitian_and_diagonalized(self, d):
        b = build_basis()
        assert b.eigenvalues.shape == (d * d, d)
        for k in range(d * d):
            m = b.matrices[k]
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            u, w = b.diagonalizers[k], b.eigenvalues[k]
            assert np.max(np.abs(u.conj().T @ m @ u - np.diag(w))) < 1e-12

    def test_completeness(self):
        b = build_basis()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = a + a.conj().T
        rec = np.einsum("k,kij->ij",
                        np.real(np.einsum("ij,kji->k", a, b.matrices)), b.matrices)
        assert np.max(np.abs(rec - a)) < 1e-10

    def test_rejects_small_dimension(self, monkeypatch):
        # only four-mode rows (n, 4) are measured; any other shape of psis fails
        # before a single state is measured
        def no_measure(*args):
            raise AssertionError("measured before checking the dimension")
        monkeypatch.setattr(tomography, "_measure_batch", no_measure)
        for psis in (np.eye(2)[:1], np.eye(3)[:2], np.eye(5)[:1], np.eye(4)[0], np.eye(4)[None]):
            with pytest.raises(BornsimError, match=re.escape(f"(got shape {psis.shape})")):
                fidelity_scan(np.array([1.0]), 1.0, 1, RngStream(1), method="mle",
                              psis=psis.astype(complex))


class TestMeasurement:
    def test_vacuum_gives_uniform_trace_moments(self):
        b = build_basis()
        m = _measure_batch(np.eye(4)[:1].astype(complex), 0.0, 1.0, b)[0]
        expected = np.array([np.real(np.trace(bk)) / 4 for bk in b.matrices])
        assert m == pytest.approx(expected, abs=1e-14)

    def test_bright_state_pins_population_moment(self):
        # the diagonal elements I x Z, Z x I and Z x Z read their +1/2 entry when
        # mode 1 dominates
        b = build_basis()
        m = _measure_batch(np.eye(4)[:1].astype(complex), 10.0, 1.0, b)[0]
        assert m[[3, 12, 15]] == pytest.approx([0.5] * 3, abs=0.01)

    @pytest.mark.parametrize("d, alpha, g, seed", [
        (4, 1.0, 1.0, 3), (4, 2.2, 0.8, 4), (4, 0.3, 1.6, 5),
    ])
    def test_matches_outcome_table_oracle(self, d, alpha, g, seed):
        # brute force: the single-click entries of each rotated setting's 2^d table
        b = build_basis()
        psi = random_direction(d, seed)
        m = _measure_batch(psi[None], alpha, g, b)[0]
        oracle = np.empty(d * d)
        for k in range(d * d):
            psi_k = b.diagonalizers[k].conj().T @ psi
            state_k = CoherentVector(alpha, psi_k / np.linalg.norm(psi_k))
            singles = outcome_distribution(state_k, g).single_detection_probs()
            oracle[k] = singles / singles.sum() @ b.eigenvalues[k]
        assert np.max(np.abs(m - oracle)) <= 1e-14

    def test_batch_rows_equal_one_state_calls(self):
        # at alpha = 6, gamma = 0.5 some settings saturate a detector and some
        # do not, so one batch mixes limit-rule rows with ordinary ones
        b = build_basis()
        psis = np.array([random_direction(4, s) for s in range(8)])
        batch = _measure_batch(psis, 6.0, 0.5, b)
        for psi, row in zip(psis, batch):
            assert np.array_equal(row, _measure_batch(psi[None], 6.0, 0.5, b)[0])
        amps = 6.0 * np.abs(np.einsum("kji,nj->nki", b.diagonalizers.conj(), psis))
        saturated = (marcum_q1(2.0 * amps, 1.0) == 1.0).any(axis=-1)
        assert saturated.any() and not saturated.all()

    @pytest.mark.parametrize("d", [4])
    def test_grid_equals_one_point_calls(self, d):
        # alpha = 6, gamma = 0.5 saturates some settings; a basis that measures
        # every matrix in its own setting gives the same bits as the shared settings
        b = build_basis()
        alone = dataclasses.replace(b, settings=np.arange(d * d), setting_of=np.arange(d * d))
        psis = np.array([random_direction(d, s) for s in range(5)])
        alphas, gammas = np.array([0.0, 0.7, 2.2, 6.0]), np.array([0.5, 1.0, 1.6])
        grid = _measure_batch(psis, alphas[:, None], gammas, b)
        assert grid.shape == (alphas.size, gammas.size, len(psis), d * d)
        assert np.array_equal(grid, _measure_batch(psis, alphas[:, None], gammas, alone))
        for i, a in enumerate(alphas):
            for j, g in enumerate(gammas):
                assert np.array_equal(grid[i, j], _measure_batch(psis, a, g, b))

    def test_shared_settings(self):
        # I and Z share the identity eigenbasis: 9 settings for the 16 products
        b = build_basis()
        assert b.settings.size == 9
        # each setting is the first matrix of its diagonalizer, in order of first index
        assert b.settings.tolist() == [0, 1, 2, 4, 5, 6, 8, 9, 10]
        assert b.setting_of.tolist() == [0, 1, 2, 0, 3, 4, 5, 3, 6, 7, 8, 6, 0, 1, 2, 0]
        for k in range(16):
            assert np.array_equal(b.diagonalizers[k], b.diagonalizers[b.settings[b.setting_of[k]]])

    def test_zero_threshold_in_an_array_rejected(self):
        with pytest.raises(BornsimError, match="every mode crosses threshold at gamma = 0"):
            _conditional_clicks(np.ones((2, 3)), np.array([[1.0], [0.0]]))
        with pytest.raises(BornsimError, match="every mode crosses threshold at gamma = 0"):
            _measure_batch(np.eye(4)[:1].astype(complex), 1.0, np.array([1.0, 0.0]), build_basis())

    def test_monte_carlo_post_selection_matches(self):
        # estimate the conditional click distribution in one rotated setting
        b = build_basis()
        alpha, g, n, k = 1.0, 1.0, 300_000, 5
        psi = bell_direction()
        psi_k = b.diagonalizers[k].conj().T @ psi
        psi_k /= np.linalg.norm(psi_k)
        state = CoherentVector(alpha, psi_k)
        p = _conditional_clicks(np.abs(state.mode_amplitudes()), g)
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
        b = build_basis()
        for seed in range(50):
            rho = random_density(4, seed)
            m = np.real(np.einsum("ij,kji->k", rho, b.matrices))
            assert np.max(np.abs(_reconstruct(m, b, "linear")[0] - rho)) < 1e-10

    def test_vacuum_reconstructs_maximally_mixed(self):
        b = build_basis()
        m = _measure_batch(np.eye(4)[:1].astype(complex), 0.0, 1.0, b)[0]
        assert np.array_equal(_reconstruct(m, b, "linear")[0], np.eye(4) / 4)

    def test_large_amplitude_goes_indefinite(self):
        b = build_basis()
        psi = random_direction(4, 11)
        m = _measure_batch(psi[None], 3.0, 1.0, b)[0]
        rho, least = _reconstruct(m, b, "linear")
        assert np.linalg.eigvalsh(rho).min() < -1e-6
        assert least == pytest.approx(np.linalg.eigvalsh(rho).min(), abs=1e-14)

    def test_zero_trace_rejected(self):
        # both methods divide by Tr S, so both refuse a nonpositive one
        for method in ("linear", "mle"):
            for m in (np.zeros(16), np.eye(16)[0] * -0.5):
                with pytest.raises(BornsimError, match="nonpositive trace"):
                    _reconstruct(m, build_basis(), method)


class TestConstrainedFit:
    def test_recovers_valid_density(self):
        b = build_basis()
        rho = random_density(4, 42)
        m = np.real(np.einsum("ij,kji->k", rho, b.matrices))
        fit = _reconstruct(m, b, "mle")[0]
        assert fit_objective(fit, m, b) <= 1e-12
        assert np.max(np.abs(fit - rho)) < 1e-5

    def test_output_always_psd_unit_trace_hermitian(self):
        b = build_basis()
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(scale=0.3, size=16)
            m[0] = 0.5  # identity component fixes the trace
            fit = _reconstruct(m, b, "mle")[0]
            w = np.linalg.eigvalsh(fit)
            assert w.min() >= -1e-10
            assert np.real(np.trace(fit)) == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(fit - fit.conj().T)) < 1e-10

    def test_gradient_matches_finite_differences(self):
        # the L-BFGS reference fit is only as good as its analytic gradient
        b = build_basis()
        rng = np.random.default_rng(1)
        m = rng.normal(scale=0.3, size=16)
        m[0] = 0.5
        x0 = rng.normal(size=16)
        numeric = optimize.approx_fprime(x0, lambda x: lbfgs_objective(x, m, b)[0], 1e-7)
        assert np.max(np.abs(lbfgs_objective(x0, m, b)[1] - numeric)) < 1e-5

    def test_deterministic(self):
        b = build_basis()
        m = _measure_batch(bell_direction()[None], 1.0, 1.0, b)[0]
        assert np.array_equal(_reconstruct(m, b, "mle")[0], _reconstruct(m, b, "mle")[0])

    def test_objective_never_above_lbfgs(self):
        b = build_basis()
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
            cases.append(_measure_batch(psi[None], 3.0, 1.0, b)[0])
        indefinite = 0
        for m in cases:
            linear, least_linear = _reconstruct(m, b, "linear")
            indefinite += np.linalg.eigvalsh(linear).min() < -1e-12
            assert least_linear == pytest.approx(np.linalg.eigvalsh(linear).min(), abs=1e-14)
            fit, least = _reconstruct(m, b, "mle")
            assert least == least_linear
            assert fit_objective(fit, m, b) <= lbfgs_fit(m, b)[1] + 1e-12
            assert np.linalg.eigvalsh(fit).min() >= -1e-12
            assert np.real(np.trace(fit)) == pytest.approx(1.0, abs=1e-12)
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
        with pytest.raises(BornsimError, match=r"does not match psi length 2"):
            fidelity(np.array([1.0, 0.0]), np.eye(4) / 4)

    def test_partial_transpose_involution(self):
        rho = random_density(4, 9)
        assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)

    def test_partial_transpose_shape_check(self):
        for shape in ((6, 6), (4, 2), (2, 4, 3)):
            with pytest.raises(BornsimError, match="does not factor as 2x2"):
                partial_transpose(np.zeros(shape))

    def test_product_state_is_ppt(self):
        rho = np.kron(random_density(2, 10), random_density(2, 11))
        assert ppt_witness(rho) >= -1e-10

    def test_ideal_bell_witness(self):
        psi = bell_direction()
        w = ppt_witness(np.outer(psi, psi.conj()))
        assert w == pytest.approx(-0.5, abs=1e-12)

    def test_reconstructed_bell_goes_negative(self):
        scan = bell_witness_scan(np.array([0.7, 1.0, 3.0]), 1.0)
        assert scan.analytic["witness"][0] < 0.0
        assert scan.analytic["witness"][2] == pytest.approx(-0.5, abs=0.02)


class TestReportsAndSweeps:
    def test_one_state_reconstruction(self):
        b = build_basis()
        psi = bell_direction()
        m = _measure_batch(psi[None], 1.0, 1.0, b)[0]
        # the raw linear inversion already has unit trace
        raw_trace = np.real(np.trace(np.einsum("k,kij->ij", m, b.matrices)))
        assert abs(raw_trace - 1.0) < 1e-10
        fit = _reconstruct(m, b, "mle")[0]
        assert np.linalg.eigvalsh(fit).min() >= -1e-10
        assert np.isfinite(ppt_witness(fit))
        assert 0.0 <= fidelity(psi, fit) <= 1.0 + 1e-9

    def test_bell_witness_scan_equals_per_alpha_reconstruction(self):
        alphas = np.round(0.1 * np.arange(31), 12)
        scan = bell_witness_scan(alphas, 1.0)
        b = build_basis()
        psi = bell_direction()
        cols = {"witness": [], "fidelity": [], "min_eigenvalue": []}
        for a in alphas:
            m = _measure_batch(psi[None], a, 1.0, b)[0]
            rho = _reconstruct(m, b, "mle")[0]
            cols["witness"].append(ppt_witness(rho))
            cols["fidelity"].append(fidelity(psi, rho))
            cols["min_eigenvalue"].append(np.linalg.eigvalsh(rho)[0])
        for name, values in cols.items():
            assert np.array_equal(scan.analytic[name], values), name

    def test_fidelity_scan_shapes_and_vacuum_value(self):
        res = fidelity_scan(np.array([0.0, 1.0]), 1.0, 3, RngStream(50), method="linear")
        assert res.analytic["fid_mean"].shape == (2,)
        assert res.analytic["fid_mean"][0] == pytest.approx(0.25, abs=1e-12)

    def test_ensemble_sweep_subgrid_equals_full_slice(self):
        alphas = np.array([0.5, 1.0, 3.0])
        gammas = np.array([0.75, 1.0, 1.5])
        full = ensemble_sweep(alphas, gammas, 3, rng=RngStream(60))
        for ia, ig in ((slice(1, None), slice(None, None, 2)), (slice(2, 3), slice(1, 2))):
            part = ensemble_sweep(alphas[ia], gammas[ig], 3, rng=RngStream(60))
            for name in ("mean_fidelity", "frac_invalid", "mean_visibility",
                         "mean_ppt_witness", "per_state_fidelity"):
                assert np.array_equal(getattr(part, name), getattr(full, name)[ia, ig]), name

    @pytest.mark.parametrize("n_states, n_alpha", [(5, 40), (50, 3), (300, 2)])
    def test_grid_measured_in_capped_alpha_blocks(self, monkeypatch, n_states, n_alpha):
        # whole alpha rows per call, at most the block cap unless one row exceeds it
        measure, calls = tomography._measure_batch, []

        def counted(psis, alpha, gamma, basis):
            calls.append((alpha.ravel().tolist(),
                          alpha.size * gamma.size * psis.size * len(basis.matrices)))
            return measure(psis, alpha, gamma, basis)

        monkeypatch.setattr(tomography, "_measure_batch", counted)
        alphas, gammas = np.linspace(0.1, 3.0, n_alpha), np.linspace(0.5, 3.0, 12)
        res = ensemble_sweep(alphas, gammas, n_states, rng=RngStream(63))
        assert len(calls) > 1
        assert [a for rows, _ in calls for a in rows] == alphas.tolist()
        cap = tomography._BLOCK_AMPLITUDES
        assert all(size <= cap or len(rows) == 1 for rows, size in calls)
        assert res.per_state_fidelity.shape == (n_alpha, gammas.size, n_states)

    def test_block_size_does_not_change_scores(self, monkeypatch):
        # one alpha row per block, or the whole grid in one block: the same bits
        alphas, gammas = np.linspace(0.0, 3.0, 7), np.array([0.5, 1.0, 1.6])

        def scans():
            sweep = ensemble_sweep(alphas, gammas, 3, RngStream(64))
            out = [getattr(sweep, f.name) for f in dataclasses.fields(sweep) if f.name != "meta"]
            for method in ("linear", "mle"):
                out += fidelity_scan(alphas, 1.0, 3, RngStream(64), method).analytic.values()
            return out + list(bell_witness_scan(alphas, 1.0).analytic.values())

        monkeypatch.setattr(tomography, "_BLOCK_AMPLITUDES", 1)
        rows = scans()
        monkeypatch.setattr(tomography, "_BLOCK_AMPLITUDES", 2 ** 40)
        whole = scans()
        assert len(rows) == len(whole) == 7 + 2 * 8 + 3
        for a, b in zip(rows, whole):
            assert np.array_equal(a, b)

    def test_reconstruct_gets_at_most_one_block(self, monkeypatch):
        # no call reconstructs more density matrices than one block of alpha rows holds
        reconstruct, sizes = tomography._reconstruct, []

        def counted(m, basis, method):
            sizes.append(m.size // len(basis.matrices))
            return reconstruct(m, basis, method)

        monkeypatch.setattr(tomography, "_reconstruct", counted)
        grid, n_states = np.linspace(0.25, 3.0, 12), 20
        ensemble_sweep(grid, grid, n_states, RngStream(65))
        row = grid.size * n_states  # matrices in one alpha row, each 16 settings x 4 modes
        per_block = max(1, tomography._BLOCK_AMPLITUDES // (row * 16 * 4)) * row
        assert sum(sizes) == grid.size * row
        assert max(sizes) <= per_block

    def test_empty_alpha_grid_gives_empty_scores(self):
        sweep = ensemble_sweep(np.array([]), np.array([1.0, 2.0]), 2, RngStream(66))
        assert sweep.per_state_fidelity.shape == (0, 2, 2)
        assert sweep.mean_ppt_witness.shape == (0, 2)
        scan = fidelity_scan(np.array([]), 1.0, 2, RngStream(66), method="linear")
        assert all(curve.shape == (0,) for curve in scan.analytic.values())
        scan = bell_witness_scan(np.array([]), 1.0)
        assert all(curve.shape == (0,) for curve in scan.analytic.values())

    def test_sweep_vacuum_column(self):
        res = ensemble_sweep(np.array([0.0]), np.array([1.0]), 4, rng=RngStream(61))
        assert res.per_state_fidelity[0, 0] == pytest.approx([0.25] * 4, abs=1e-12)

    @pytest.mark.parametrize("scan", [
        lambda method: fidelity_scan(np.array([1.0]), 1.0, 2, RngStream(1), method=method),
    ], ids=["fidelity_scan"])
    def test_unknown_method_rejected_before_measurement(self, monkeypatch, scan):
        def measure(*args):
            raise AssertionError("measured before the method was checked")

        monkeypatch.setattr(tomography, "_measure_batch", measure)
        with pytest.raises(BornsimError, match="linaer"):
            scan("linaer")

    def test_empty_ensemble_sweep_rejected(self):
        with pytest.raises(BornsimError, match="n_states must be >= 1"):
            ensemble_sweep(np.array([1.0]), np.array([1.0]), 0, RngStream(1))
        with pytest.raises(BornsimError, match="n_states must be >= 1"):
            fidelity_scan(np.array([1.0]), 1.0, 5, RngStream(1), method="linear",
                          psis=np.zeros((0, 4)))

    def test_bell_witness_scan_takes_four_modes(self, monkeypatch):
        # the 2 x 2 witness partition has no two-mode counterpart; the shape is
        # checked before any grid point is measured
        def no_measure(*args):
            raise AssertionError("measured before checking psi")
        monkeypatch.setattr(tomography, "_measure_batch", no_measure)
        with pytest.raises(BornsimError, match=r"four-mode psi \(got shape \(2,\)\)"):
            bell_witness_scan(np.linspace(0.0, 3.0, 31), 1.0, psi=np.array([1.0, 0.0]))

    def test_sweep_csv_schema(self, tmp_path):
        res = ensemble_sweep(np.array([0.5]), np.array([1.0]), 2, rng=RngStream(62))
        path = tmp_path / "sweep.csv"
        res.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "alpha,gamma,mean_fidelity,frac_invalid,mean_visibility,mean_ppt_witness"


def test_measurement_survives_saturated_detectors():
    # far above threshold one mode clicks with certainty at float precision;
    # the conditional limit concentrates there and the moments stay finite
    b = build_basis()
    m = _measure_batch(np.eye(4)[:1].astype(complex), 30.0, 0.5, b)[0]
    assert m[[3, 12, 15]] == pytest.approx([0.5] * 3, abs=1e-9)
    res = fidelity_scan(np.array([30.0]), 0.5, 2, RngStream(90), method="linear",
                        psis=np.eye(4)[:2].astype(complex))
    assert np.all(np.isfinite(res.analytic["fid_mean"]))
