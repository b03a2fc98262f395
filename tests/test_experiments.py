import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import RngStream, detect_prob, marcum_q1
from bornsim import experiments
from bornsim.detection import (
    _click_law,
    _conditional_clicks,
    dark_count_prob,
    gamma_of,
    visibility_single,
)
from bornsim.errors import BornsimError
from bornsim.experiments import (
    antibunching_scan,
    deviation_scan,
    dual_mode_scan,
    hyperentanglement_scan,
    mach_zehnder,
    mach_zehnder_fit,
    polarization_scan,
    visibility_scan,
)
from bornsim.field import CLICK_BLOCK, threshold_clicks
from oracles import CoherentVector, detect_batch, outcome_distribution, realize_batch

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def dual_mode_point(alpha, theta, g):
    """Every curve of the dual-mode scan at one angle theta (radians)."""
    res = dual_mode_scan(alpha, g, np.array([math.degrees(theta)]))
    return {k: v[0] for k, v in res.analytic.items()}, res.meta["visibility"]


def beamsplitter_point(alpha, g):
    return {k: v[0] for k, v in antibunching_scan(g, np.array([alpha])).analytic.items()}


def hyper_point(alpha, g):
    return {k: v[0] for k, v in hyperentanglement_scan(alpha, np.array([g])).analytic.items()}


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

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_threshold_clicks_equal_detect_batch(self, seed):
        # block edges: one trial, one short of a block, one block, two blocks and a tail
        for n in (1, CLICK_BLOCK - 1, CLICK_BLOCK, 2 * CLICK_BLOCK + 7):
            for a in (-0.707, 0.0, 1e-3, 0.999, 20.0):
                for g in (0.0, 1e-3, 1.0, 20.0):
                    key = (seed, 0, (n,))
                    old = detect_batch(realize_batch(CoherentVector(a, [1.0]), n,
                                                     RngStream(*key)), g).sum()
                    assert threshold_clicks(a, g, n, RngStream(*key)) == old, (n, a, g)

    def test_counts_equal_per_angle_realizations(self):
        rng = RngStream(42)
        res = polarization_scan(0.707, 1.0, n_trials=20_000, rng=rng)
        t = np.deg2rad(res.grid)
        old = [detect_batch(realize_batch(CoherentVector(0.707 * np.cos(t[i]), np.array([1.0])),
                                          20_000, rng.substream(i)), 1.0).sum()
               for i in range(t.size)]
        assert res.counts["counts"].tolist() == old

    @staticmethod
    def counted_by_threads(monkeypatch, cpus, n_trials):
        """Counts of the default scan on `cpus` usable CPUs, and the threads that counted."""
        idents = set()

        def clicks(*args):
            idents.add(threading.get_ident())
            return threshold_clicks(*args)

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiments, "threshold_clicks", clicks)
        res = polarization_scan(-0.9, 0.8, n_trials=n_trials, rng=RngStream(31))
        return res.counts["counts"].tolist(), len(idents)

    @staticmethod
    def serial_counts(n_trials):
        rng = RngStream(31)
        signed = -0.9 * np.cos(np.deg2rad(experiments.DEFAULT_THETA_GRID_DEG))
        return [threshold_clicks(a, gamma_of(0.8), n_trials, rng.substream(i))
                for i, a in enumerate(signed)]

    @pytest.mark.parametrize("n_trials", [CLICK_BLOCK - 1, CLICK_BLOCK + 3])
    def test_counts_equal_serial_loop_on_any_cpu_count(self, monkeypatch, n_trials):
        serial = self.serial_counts(n_trials)
        for cpus in (1, 2, 3, 8):
            counts, threads = self.counted_by_threads(monkeypatch, cpus, n_trials)
            assert counts == serial, cpus
            # below one block per angle the calling thread counts alone
            assert threads == (cpus if n_trials >= CLICK_BLOCK else 1), cpus

    def test_counts_equal_serial_loop_under_fast_thread_switching(self, monkeypatch):
        serial = self.serial_counts(CLICK_BLOCK)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts, threads = self.counted_by_threads(monkeypatch, 3, CLICK_BLOCK)
        finally:
            sys.setswitchinterval(interval)
        assert counts == serial and threads == 3

    def test_lowest_failing_angle_raises_after_every_thread_ends(self, monkeypatch):
        # the helper fails at its first angle once the caller holds a later one,
        # and the caller then fails at that later angle
        caller = threading.current_thread()
        helper_holds, caller_holds_later, helper_failed = (threading.Event() for _ in range(3))
        failed = {}

        def clicks(a, gamma, n, rng):
            i = rng._path[-1]
            if threading.current_thread() is not caller:
                failed["helper"] = i
                helper_holds.set()
                assert caller_holds_later.wait(timeout=30)
                helper_failed.set()
                raise BornsimError(f"angle {i}")
            assert helper_holds.wait(timeout=30)
            if i < failed["helper"]:
                return 0
            failed["caller"] = i
            caller_holds_later.set()
            assert helper_failed.wait(timeout=30)
            raise BornsimError(f"angle {i}")

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "threshold_clicks", clicks)
        before = threading.active_count()
        with pytest.raises(BornsimError) as exc:
            polarization_scan(0.707, 1.0, n_trials=CLICK_BLOCK, rng=RngStream(1))
        assert failed["caller"] > failed["helper"]
        assert str(exc.value) == f"angle {failed['helper']}"
        assert threading.active_count() == before

    @pytest.mark.parametrize("alpha0, gamma, named", [
        (0.707 + 0j, 1.0, "alpha0"), (1j, 1.0, "alpha0"), (math.nan, 1.0, "alpha0"),
        (math.inf, 1.0, "alpha0"),
        # the Born expansion overflows: rejected before it becomes NaN
        (1e200, 1.0, r"\|alpha\| = 1e\+200, gamma = 1$"),
        (0.707, 1e100, r"\|alpha\| = 0.707, gamma = 1e\+100$"),
    ], ids=["(0.707+0j)", "1j", "nan", "inf", "1e+200", "gamma=1e+100"])
    def test_rejects_non_real_or_non_finite_alpha0(self, alpha0, gamma, named, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew or evaluated Q1 before checking the input")
        monkeypatch.setattr(RngStream, "uniforms", no_draws)
        monkeypatch.setattr(experiments, "detect_prob", no_draws)
        with pytest.raises(BornsimError, match=named):
            polarization_scan(alpha0, gamma, n_trials=10, rng=RngStream(1))


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


@pytest.mark.parametrize("scan, grid", [
    (lambda grid: dual_mode_scan(0.8, 1.1, grid), None),
    (lambda grid: antibunching_scan(1.25, grid), np.linspace(0.0, 3.0, 301)),
    (lambda grid: hyperentanglement_scan(1.0, grid), np.arange(1, 61) * 0.05),
], ids=["dual_mode", "antibunching", "hyperentanglement"])
def test_scan_equals_point_calls(scan, grid):
    res = scan(grid)
    rows = [scan(np.array([x])) for x in res.grid]
    for column, curve in res.analytic.items():
        assert np.array_equal(curve, [r.analytic[column][0] for r in rows]), column


class TestDualMode:
    def test_balanced_angle_gives_half(self):
        dm, _ = dual_mode_point(math.sqrt(0.5), math.radians(45.0), 1.0)
        assert dm["p_cond_h"] == pytest.approx(0.5, abs=1e-14)

    def test_quoted_visibility_and_range(self):
        _, visibility = dual_mode_point(math.sqrt(0.5), 0.3, 1.0)
        assert visibility == pytest.approx(0.612336082444, abs=1e-9)
        scan = dual_mode_scan(math.sqrt(0.5), 1.0)
        ph = scan.analytic["p_cond_h"]
        assert ph.min() == pytest.approx(0.5 * (1 - visibility), abs=1e-9)
        assert ph.max() == pytest.approx(0.5 * (1 + visibility), abs=1e-9)

    def test_renormalized_endpoints(self):
        for theta, target in ((0.0, 1.0), (math.pi / 4, 0.5), (math.pi / 2, 0.0)):
            dm, _ = dual_mode_point(math.sqrt(0.5), theta, 1.0)
            assert dm["p_cond_h_renorm"] == pytest.approx(target, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        dm, _ = dual_mode_point(0.9, 0.7, 1.2)
        assert dm["p0"] + dm["p_h"] + dm["p_v"] + dm["p_hv"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_threshold_has_no_single_clicks(self):
        with pytest.raises(BornsimError, match="no single-click events"):
            dual_mode_point(1.0, 0.3, 0.0)

    def test_matches_outcome_distribution(self):
        alpha, theta, g = 0.77, 0.6, 1.1
        dm, _ = dual_mode_point(alpha, theta, g)
        psi = np.array([math.cos(theta), math.sin(theta)])
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        assert dm["p0"] == pytest.approx(dist.prob((0, 0)), abs=1e-14)
        assert dm["p_h"] == pytest.approx(dist.prob((1, 0)), abs=1e-14)
        assert dm["p_v"] == pytest.approx(dist.prob((0, 1)), abs=1e-14)
        assert dm["p_hv"] == pytest.approx(dist.prob((1, 1)), abs=1e-14)

    @given(alpha=st.floats(0.0, 2.5), theta=st.floats(0.0, math.pi),
           gamma=st.floats(0.1, 2.5))
    @settings(max_examples=80, deadline=None)
    def test_sum_rule_property(self, alpha, theta, gamma):
        dm, _ = dual_mode_point(alpha, theta, gamma)
        assert dm["p0"] + dm["p_h"] + dm["p_v"] + dm["p_hv"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dm["p_cond_h"] <= 1.0


class TestBeamsplitter:
    def test_ratio_never_below_one(self):
        for g in np.linspace(0.1, 2.0, 20):
            assert np.all(antibunching_scan(g, np.linspace(0.0, 2.0, 20)).analytic["R"]
                          >= 1.0 - 1e-12)

    def test_detected_ratio_minimum(self):
        scan = antibunching_scan(1.0, np.linspace(0.0, 3.0, 301))
        assert scan.analytic["Rd"].min() == pytest.approx(0.3375330579912432, abs=1e-9)

    def test_heralded_reference_point(self):
        assert beamsplitter_point(0.3, 1.6)["Rd"] == pytest.approx(0.018, abs=0.002)

    def test_matches_outcome_distribution(self):
        alpha, g = 0.8, 1.0
        bsres = beamsplitter_point(alpha, g)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        assert bsres["p0"] == pytest.approx(dist.prob((0, 0)), abs=1e-13)
        assert bsres["p_coinc"] == pytest.approx(dist.prob((1, 1)), abs=1e-13)
        assert bsres["p_single"] == pytest.approx(dist.prob((1, 0)), abs=1e-13)


class TestHyperentangled:
    def test_vacuum_conditional_is_exactly_quarter(self):
        for g in (0.4, 1.0, 1.7, 2.3):
            assert hyper_point(0.0, g)["conditional_rh"] == 0.25

    def test_zero_threshold_has_no_single_clicks(self):
        with pytest.raises(BornsimError, match="no single-click events"):
            hyper_point(1.0, 0.0)
        with pytest.raises(BornsimError, match="no single-click events"):
            hyperentanglement_scan(1.0, np.array([0.0, 0.5, 1.0]))

    def test_conditional_approaches_half_at_high_threshold(self):
        assert 0.49 <= hyper_point(1.0, 3.0)["conditional_rh"] <= 0.51

    def test_matches_outcome_distribution(self):
        alpha, g = 1.0, 1.2
        hp = hyper_point(alpha, g)
        dist = outcome_distribution(CoherentVector(alpha, BELL), g)
        singles = dist.single_detection_probs()
        assert hp["pr_rh"] == pytest.approx(singles[0], abs=1e-14)
        assert hp["pr_rv"] == pytest.approx(singles[1], abs=1e-14)
        assert singles[0] == pytest.approx(singles[3], rel=1e-12)

    def test_monte_carlo_frequencies(self):
        alpha, g, n = 1.0, 1.2, 1_000_000
        hp = hyper_point(alpha, g)
        a = realize_batch(CoherentVector(alpha, BELL), n, RngStream(30))
        bits = detect_batch(a, g)
        ones = bits.sum(axis=1) == 1
        for mode, p in ((0, hp["pr_rh"]), (1, hp["pr_rv"])):
            freq = np.mean(ones & (bits[:, mode] == 1))
            assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / n)


class TestConditionalModeProbs:
    def test_vacuum_is_uniform(self):
        psi = RngStream(1).complex_normals(4)
        psi /= np.linalg.norm(psi)
        p = _conditional_clicks(np.abs(CoherentVector(0.0, psi).mode_amplitudes()), 1.0)
        assert np.all(p == p[0])
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_direction_any_amplitude(self):
        psi = np.full(4, 0.5)
        p = _conditional_clicks(np.abs(CoherentVector(2.2, psi).mode_amplitudes()), 0.9)
        assert np.all(p == p[0])

    def test_bright_classical_state_concentrates(self):
        p = _conditional_clicks(np.array([10.0, 0.0, 0.0]), 1.0)
        assert p[0] > 0.999

    def test_zero_threshold_raises(self):
        with pytest.raises(BornsimError, match="every mode crosses threshold at gamma = 0"):
            _conditional_clicks(np.array([1.0, 0.0]), 0.0)

    def test_matches_outcome_distribution(self):
        # the click law against the 2^d table: its all-dark entry multiplies the same
        # factors in the same order, each single the same factors in another
        for d in (2, 4):
            psi = RngStream(2).complex_normals(d)
            psi /= np.linalg.norm(psi)
            state = CoherentVector(1.3, psi)
            amps = np.abs(state.mode_amplitudes())
            dist = outcome_distribution(state, 0.8)
            p_none, singles = _click_law(detect_prob(amps, 0.8))
            assert p_none == dist.prob((0,) * d)
            assert singles == pytest.approx(dist.single_detection_probs(), rel=1e-15)
            p = _conditional_clicks(amps, 0.8)
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
        fit = mach_zehnder_fit(0.95, 1.6, RngStream(40), n_points=25,
                               sample_size=2600).meta["fit"]
        assert fit["visibility"] == pytest.approx(0.94, abs=0.02)
        assert fit["r_d"] == pytest.approx(0.12, abs=0.02)
        assert fit["rmse"] == pytest.approx(0.04, abs=0.02)

    def test_fit_result_holds_samples_and_summary(self):
        fit = mach_zehnder_fit(0.95, 1.6, RngStream(40), n_points=8, sample_size=2600)
        curves = mach_zehnder(0.95, 1.6)
        assert fit.grid_name == curves.grid_name and np.array_equal(fit.grid, curves.grid)
        assert list(fit.analytic) == list(curves.analytic)
        assert all(np.array_equal(fit.analytic[k], v) for k, v in curves.analytic.items())
        assert np.array_equal(fit.meta["sample_phis"], 2.0 * np.pi * np.arange(8) / 8)
        assert len(fit.meta["samples"]) == 8
        assert sorted(fit.meta["fit"]) == ["amplitude", "offset", "phase", "r_d", "rmse",
                                           "visibility"]
        assert fit.meta["fit"]["r_d"] == antibunching_scan(1.6, [0.95]).analytic["Rd"][0]

    def test_fit_is_the_least_squares_fit(self):
        # the closed form against the general solver, at every sample count from 4 to 64
        for n in range(4, 65):
            result = mach_zehnder_fit(0.95, 1.6, RngStream(n), n_points=n, sample_size=2600)
            phis, samples = result.meta["sample_phis"], result.meta["samples"]
            basis = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
            coef = np.linalg.lstsq(basis, samples, rcond=None)[0]
            ampl = math.hypot(coef[1], coef[2])
            expected = {"amplitude": 2.0 * ampl, "offset": coef[0] - ampl,
                        "phase": 0.5 * math.atan2(-coef[2], coef[1]),
                        "rmse": np.sqrt(np.mean((samples - basis @ coef) ** 2))}
            for key, value in expected.items():
                assert result.meta["fit"][key] == pytest.approx(value, rel=0, abs=1e-13), (n, key)

    def test_fit_rmse_stable_across_seeds(self):
        rmses = [mach_zehnder_fit(0.95, 1.6, RngStream(s), n_points=25,
                                  sample_size=2600).meta["fit"]["rmse"] for s in range(10)]
        assert all(0.02 <= r <= 0.06 for r in rmses)

    def test_fit_visibility_equals_dense_grid_extrema(self):
        # reference: the extrema of the 721-point phase grid the fit once searched
        for alpha, g in itertools.product([0.0, 0.1, 0.5, 0.95, 1.3, 2.0, 3.0, 5.0],
                                          [0.05, 0.5, 1.0, 1.6, 2.5]):
            p = mach_zehnder(alpha, g, np.linspace(0.0, 2.0 * np.pi, 721)).analytic["p_mz"]
            delta = dark_count_prob(g)
            dense = (p.max() - p.min()) / (p.max() + p.min() - 2.0 * delta)
            fit = mach_zehnder_fit(alpha, g, RngStream(1), n_points=4,
                                   sample_size=2600).meta["fit"]
            assert fit["visibility"] == dense, (alpha, g)

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
        # a numpy integer is not a Python int: the writer refuses it instead of guessing
        res.meta["n"] = np.int64(1)
        with pytest.raises(BornsimError, match="cannot write a int64 as JSON"):
            res.to_json(json_path)

    def test_curves_must_match_the_grid(self):
        grid = np.arange(3.0)
        with pytest.raises(BornsimError, match="curve 'p'"):
            experiments.ScenarioResult("x", grid, {"p": np.zeros(2)})
        with pytest.raises(BornsimError, match="counts 'n'"):
            experiments.ScenarioResult("x", grid, {"p": np.zeros(3)}, counts={"n": np.zeros(4)})
