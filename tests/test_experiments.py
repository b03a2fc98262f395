import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import (
    CoherentVector,
    RngStream,
    marcum_q1,
    outcome_distribution,
    realize_batch,
)
from bornsim.detection import detect_batch, visibility_single
from bornsim.errors import SaturatedDetectorError, UndefinedConditionalError
from bornsim.experiments import (
    antibunching_scan,
    beamsplitter_coincidence,
    conditional_mode_probs,
    deviation_scan,
    dual_mode_probs,
    dual_mode_scan,
    hyperentangled_probs,
    hyperentanglement_scan,
    mach_zehnder,
    mach_zehnder_fit,
    polarization_scan,
    visibility_scan,
)

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


class TestPolarizationScan:
    def test_analytic_endpoints(self):
        res = polarization_scan(0.707, 1.0, n_trials=10_000, rng=RngStream(5))
        analytic = res.analytic["analytic"]
        assert analytic.min() == pytest.approx(1e4 * math.exp(-2.0), abs=0.1)
        assert analytic.max() == pytest.approx(1e4 * marcum_q1(1.414, 2.0), abs=0.5)

    def test_counts_within_five_sigma(self):
        n = 10_000
        res = polarization_scan(0.707, 1.0, n_trials=n, rng=RngStream(6))
        p = res.analytic["analytic"] / n
        sigma = np.sqrt(p * (1 - p) * n)
        assert np.all(np.abs(res.counts["counts"] - res.analytic["analytic"]) < 5 * sigma)

    def test_deterministic_across_thread_counts(self):
        a = polarization_scan(0.5, 1.0, n_trials=500, rng=RngStream(7), threads=1)
        b = polarization_scan(0.5, 1.0, n_trials=500, rng=RngStream(7), threads=4)
        assert np.array_equal(a.counts["counts"], b.counts["counts"])


class TestDeviationScan:
    def test_model_below_qm_at_unit_threshold(self):
        res = deviation_scan(1.0, 1.0)
        inner = slice(1, -1)
        assert np.all(res.analytic["model"][inner] <= res.analytic["qm"][inner] + 1e-12)

    def test_model_above_qm_at_half_threshold(self):
        res = deviation_scan(1.0, 0.5)
        assert np.all(res.analytic["model"] >= res.analytic["qm"] - 1e-12)

    def test_normalized_endpoints(self):
        res = deviation_scan(1.0, 1.0)
        assert res.analytic["model"][0] == pytest.approx(1.0, abs=1e-12)
        assert res.analytic["qm"][0] == pytest.approx(1.0, abs=1e-12)


class TestVisibilityScan:
    def test_curves_ordered_and_monotone(self):
        res = visibility_scan((0.5, 1.0, 1.5), np.linspace(0.3, 2.5, 12))
        lo = res.analytic["vis_alpha_0.5"]
        hi = res.analytic["vis_alpha_1.5"]
        assert np.all(hi >= lo)
        assert np.all(np.diff(res.analytic["vis_alpha_1"]) > 0)

    def test_equals_point_calls(self):
        res = visibility_scan((0.5, 1.0, 1.5), np.arange(1, 61) * 0.05)
        for a in (0.5, 1.0, 1.5):
            expected = [visibility_single(a, g) for g in res.grid]
            assert np.array_equal(res.analytic[f"vis_alpha_{a:g}"], expected)


@pytest.mark.parametrize("scan, point, columns", [
    (lambda: dual_mode_scan(0.8, 1.1), lambda t: dual_mode_probs(0.8, math.radians(t), 1.1),
     {"p_cond_h": "p_cond_h", "p_cond_h_renorm": "p_cond_h_renorm", "p0": "p0",
      "p_h": "p_h", "p_v": "p_v", "p_hv": "p_hv"}),
    (lambda: antibunching_scan(1.25), lambda a: beamsplitter_coincidence(a, 1.25),
     {"R": "r", "Rd": "r_d", "p0": "p0", "p_single": "p_r", "p_coinc": "p_rd"}),
    (lambda: hyperentanglement_scan(1.0, np.arange(1, 61) * 0.05),
     lambda g: hyperentangled_probs(1.0, g),
     {"pr_rh": "pr_rh", "pr_rv": "pr_rv", "conditional_rh": "conditional_rh"}),
], ids=["dual_mode", "antibunching", "hyperentanglement"])
def test_scan_equals_point_calls(scan, point, columns):
    res = scan()
    rows = [point(x) for x in res.grid]
    for column, field in columns.items():
        assert np.array_equal(res.analytic[column], [getattr(r, field) for r in rows]), column


class TestDualMode:
    def test_balanced_angle_gives_half(self):
        dm = dual_mode_probs(math.sqrt(0.5), math.radians(45.0), 1.0)
        assert dm.p_cond_h == pytest.approx(0.5, abs=1e-14)

    def test_quoted_visibility_and_range(self):
        dm = dual_mode_probs(math.sqrt(0.5), 0.3, 1.0)
        assert dm.visibility == pytest.approx(0.612336082444, abs=1e-9)
        scan = dual_mode_scan(math.sqrt(0.5), 1.0)
        ph = scan.analytic["p_cond_h"]
        assert ph.min() == pytest.approx(0.5 * (1 - dm.visibility), abs=1e-9)
        assert ph.max() == pytest.approx(0.5 * (1 + dm.visibility), abs=1e-9)

    def test_renormalized_endpoints(self):
        for theta, target in ((0.0, 1.0), (math.pi / 4, 0.5), (math.pi / 2, 0.0)):
            dm = dual_mode_probs(math.sqrt(0.5), theta, 1.0)
            assert dm.p_cond_h_renorm == pytest.approx(target, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        dm = dual_mode_probs(0.9, 0.7, 1.2)
        assert dm.p0 + dm.p_h + dm.p_v + dm.p_hv == pytest.approx(1.0, abs=1e-12)

    def test_zero_threshold_has_no_single_clicks(self):
        with pytest.raises(UndefinedConditionalError):
            dual_mode_probs(1.0, 0.3, 0.0)

    def test_matches_outcome_distribution(self):
        alpha, theta, g = 0.77, 0.6, 1.1
        dm = dual_mode_probs(alpha, theta, g)
        psi = np.array([math.cos(theta), math.sin(theta)])
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        assert dm.p0 == pytest.approx(dist.prob((0, 0)), abs=1e-14)
        assert dm.p_h == pytest.approx(dist.prob((1, 0)), abs=1e-14)
        assert dm.p_v == pytest.approx(dist.prob((0, 1)), abs=1e-14)
        assert dm.p_hv == pytest.approx(dist.prob((1, 1)), abs=1e-14)

    @given(alpha=st.floats(0.0, 2.5), theta=st.floats(0.0, math.pi),
           gamma=st.floats(0.1, 2.5))
    @settings(max_examples=80, deadline=None)
    def test_sum_rule_property(self, alpha, theta, gamma):
        dm = dual_mode_probs(alpha, theta, gamma)
        assert dm.p0 + dm.p_h + dm.p_v + dm.p_hv == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dm.p_cond_h <= 1.0


class TestBeamsplitter:
    def test_ratio_never_below_one(self):
        for alpha in np.linspace(0.0, 2.0, 20):
            for g in np.linspace(0.1, 2.0, 20):
                assert beamsplitter_coincidence(alpha, g).r >= 1.0 - 1e-12

    def test_detected_ratio_minimum(self):
        scan = antibunching_scan(1.0, np.linspace(0.0, 3.0, 301))
        assert scan.analytic["Rd"].min() == pytest.approx(0.3375330579912432, abs=1e-9)

    def test_heralded_reference_point(self):
        assert beamsplitter_coincidence(0.3, 1.6).r_d == pytest.approx(0.018, abs=0.002)

    def test_matches_outcome_distribution(self):
        alpha, g = 0.8, 1.0
        bsres = beamsplitter_coincidence(alpha, g)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        assert bsres.p0 == pytest.approx(dist.prob((0, 0)), abs=1e-13)
        assert bsres.p_rd == pytest.approx(dist.prob((1, 1)), abs=1e-13)
        assert bsres.p_r == pytest.approx(dist.prob((1, 0)), abs=1e-13)


class TestHyperentangled:
    def test_vacuum_conditional_is_exactly_quarter(self):
        for g in (0.4, 1.0, 1.7, 2.3):
            assert hyperentangled_probs(0.0, g).conditional_rh == 0.25

    def test_zero_threshold_has_no_single_clicks(self):
        with pytest.raises(UndefinedConditionalError):
            hyperentangled_probs(1.0, 0.0)
        with pytest.raises(UndefinedConditionalError):
            hyperentanglement_scan(1.0, np.array([0.0, 0.5, 1.0]))

    def test_conditional_approaches_half_at_high_threshold(self):
        assert 0.49 <= hyperentangled_probs(1.0, 3.0).conditional_rh <= 0.51

    def test_matches_outcome_distribution(self):
        alpha, g = 1.0, 1.2
        hp = hyperentangled_probs(alpha, g)
        dist = outcome_distribution(CoherentVector(alpha, BELL), g)
        singles = dist.single_detection_probs()
        assert hp.pr_rh == pytest.approx(singles[0], abs=1e-14)
        assert hp.pr_rv == pytest.approx(singles[1], abs=1e-14)
        assert singles[0] == pytest.approx(singles[3], rel=1e-12)

    def test_monte_carlo_frequencies(self):
        alpha, g, n = 1.0, 1.2, 1_000_000
        hp = hyperentangled_probs(alpha, g)
        a = realize_batch(CoherentVector(alpha, BELL), n, RngStream(30))
        bits = detect_batch(a, g)
        ones = bits.sum(axis=1) == 1
        for mode, p in ((0, hp.pr_rh), (1, hp.pr_rv)):
            freq = np.mean(ones & (bits[:, mode] == 1))
            assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / n)


class TestConditionalModeProbs:
    def test_vacuum_is_uniform(self):
        psi = RngStream(1).complex_normals(4)
        psi /= np.linalg.norm(psi)
        p = conditional_mode_probs(CoherentVector(0.0, psi), 1.0)
        assert np.all(p == p[0])
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_direction_any_amplitude(self):
        psi = np.full(4, 0.5)
        p = conditional_mode_probs(CoherentVector(2.2, psi), 0.9)
        assert np.all(p == p[0])

    def test_bright_classical_state_concentrates(self):
        p = conditional_mode_probs(CoherentVector(10.0, np.eye(3)[0].astype(complex)), 1.0)
        assert p[0] > 0.999

    def test_zero_threshold_raises(self):
        with pytest.raises(SaturatedDetectorError):
            conditional_mode_probs(CoherentVector(1.0, np.eye(2)[0].astype(complex)), 0.0)

    def test_matches_outcome_distribution(self):
        psi = RngStream(2).complex_normals(4)
        psi /= np.linalg.norm(psi)
        state = CoherentVector(1.3, psi)
        p = conditional_mode_probs(state, 0.8)
        singles = outcome_distribution(state, 0.8).single_detection_probs()
        assert p == pytest.approx(singles / singles.sum(), abs=1e-12)


class TestMachZehnder:
    def test_quadrature_phase_is_exactly_half(self):
        res = mach_zehnder(0.95, 1.6, np.array([np.pi / 2]))
        assert res.analytic["p_mz"][0] == 0.5

    def test_complement_symmetry(self):
        phis = np.linspace(0.0, np.pi, 60)
        a = mach_zehnder(0.95, 1.6, phis).analytic["p_mz"]
        b = mach_zehnder(0.95, 1.6, phis + np.pi).analytic["p_mz"]
        assert np.max(np.abs(a + b - 1.0)) < 1e-12

    def test_open_and_marked_conditionals_flat(self):
        res = mach_zehnder(0.7, 1.0)
        assert np.all(res.analytic["p_dc"] == 0.5)
        assert np.all(res.analytic["p_ww"] == 0.25)

    def test_total_rates_converge_at_small_amplitude(self):
        res = mach_zehnder(1e-3, 1.0)
        ratio = res.analytic["p_total_mz"] / res.analytic["p_total_dc"]
        assert np.max(np.abs(ratio - 1.0)) < 1e-4

    def test_matches_outcome_distribution(self):
        alpha, g, phi = 0.95, 1.6, 0.9
        res = mach_zehnder(alpha, g, np.array([phi]))
        psi = np.array([(1 + np.exp(1j * phi)) / 2, (1 - np.exp(1j * phi)) / 2])
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        p10, p01 = dist.prob((1, 0)), dist.prob((0, 1))
        assert res.analytic["p_mz"][0] == pytest.approx(p10 / (p10 + p01), abs=1e-12)
        assert res.analytic["p_total_mz"][0] == pytest.approx(1.0 - dist.prob((0, 0)), abs=1e-12)

    def test_fit_analysis_reference_point(self):
        fit = mach_zehnder_fit(0.95, 1.6, RngStream(40))
        assert fit.visibility == pytest.approx(0.94, abs=0.02)
        assert fit.r_d == pytest.approx(0.12, abs=0.02)
        assert fit.rmse == pytest.approx(0.04, abs=0.02)

    def test_fit_rmse_stable_across_seeds(self):
        rmses = [mach_zehnder_fit(0.95, 1.6, RngStream(s)).rmse for s in range(10)]
        assert all(0.02 <= r <= 0.06 for r in rmses)

    @given(phi=st.floats(0.0, 2.0 * math.pi), alpha=st.floats(0.05, 2.0),
           gamma=st.floats(0.3, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_complement_property(self, phi, alpha, gamma):
        grid = np.array([phi, phi + np.pi])
        p = mach_zehnder(alpha, gamma, grid).analytic["p_mz"]
        assert p[0] + p[1] == pytest.approx(1.0, abs=1e-12)


class TestScenarioSerialization:
    def test_csv_and_json(self, tmp_path):
        res = deviation_scan(1.0, 1.0, np.linspace(0.0, 180.0, 7))
        csv_path = tmp_path / "dev.csv"
        json_path = tmp_path / "dev.json"
        res.to_csv(csv_path)
        res.to_json(json_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "theta_deg,born,model,qm"
        assert len(csv_path.read_text().splitlines()) == 8
        import json

        payload = json.loads(json_path.read_text())
        assert payload["grid_name"] == "theta_deg"
        assert len(payload["analytic"]["model"]) == 7
