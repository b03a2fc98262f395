import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from bornsim import (
    CoherentVector,
    RngStream,
    Threshold,
    born_expansion,
    dark_count_prob,
    detect_prob,
    detect_sample,
    efficiency,
    marcum_q1,
    mode_crossing_probs,
    outcome_distribution,
    poisson_detection_prob,
    realize_batch,
    visibility_single,
)
from bornsim.detection import detect_batch, visibility_dual
from bornsim.errors import (
    DomainError,
    EnumerationLimitError,
    InvalidDimensionError,
    SingularThresholdError,
)

# Frozen reference values, computed with the adaptive-quadrature oracle
# below (cross-checked against scipy.stats.ncx2.sf); see marcum_quadrature.
Q1_2_2 = 0.603500960611993
Q1_1414_2 = 0.39422484049419


def marcum_quadrature(a: float, b: float) -> float:
    """Independent oracle: integrate x exp(-(x^2+a^2)/2) I0(ax) from b to inf."""
    f = lambda x: x * special.i0e(a * x) * np.exp(-0.5 * (x - a) ** 2)
    val, _ = integrate.quad(f, b, np.inf, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


class TestMarcumQ:
    def test_closed_form_at_zero_first_argument(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_unity_at_zero_threshold(self):
        assert marcum_q1(3.0, 0.0) == 1.0
        assert marcum_q1(0.0, 0.0) == 1.0

    def test_reference_values(self):
        assert marcum_q1(1.414, 2.0) == pytest.approx(Q1_1414_2, rel=1e-10)
        assert marcum_q1(2.0, 2.0) == pytest.approx(Q1_2_2, rel=1e-10)

    def test_against_quadrature_oracle(self):
        assert marcum_q1(2.0, 2.0) == pytest.approx(marcum_quadrature(2.0, 2.0), rel=1e-10)
        assert marcum_q1(0.3, 3.1) == pytest.approx(marcum_quadrature(0.3, 3.1), rel=1e-10)

    def test_against_noncentral_chi2_cdf(self):
        # 1 - Q1(2a, 2g) is the cdf at 4g^2 of a noncentral chi2(2, 4a^2)
        grid = np.linspace(0.1, 2.0, 20)
        for a, g in zip(grid, grid[::-1]):
            mine = 1.0 - marcum_q1(2.0 * a, 2.0 * g)
            ref = stats.ncx2.cdf(4.0 * g * g, 2, 4.0 * a * a)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_monotone_grid(self):
        a = np.linspace(0.0, 4.0, 41)
        for b in np.linspace(0.0, 4.0, 41):
            vals = marcum_q1(a, b)
            assert np.all(np.diff(vals) >= -1e-14)
        for aa in (0.0, 1.3, 2.6, 4.0):
            vals = np.array([marcum_q1(aa, b) for b in np.linspace(0.0, 4.0, 41)])
            assert np.all(np.diff(vals) <= 1e-14)

    def test_vectorized_matches_scalar(self):
        # a = 0, the series (short and long), and every corner branch: a or b
        # past the exp underflow with a >> b, b >> a, and both comparable
        a = np.array([0.0, 0.5, 1.414, 3.3, 8.0, 40.0, 45.0])
        b = np.array([0.0, 1.7, 2.0, 6.5, 39.0, 41.0])
        one = np.array([[marcum_q1(x, y) for y in b] for x in a])
        assert np.array_equal(marcum_q1(a[:, None], b), one)
        assert np.array_equal(marcum_q1(a, 1.7), one[:, 1])
        assert np.array_equal(marcum_q1(0.5, b), one[1])
        aa, bb = np.meshgrid(a, b, indexing="ij")
        assert np.array_equal(marcum_q1(aa.ravel(), bb.ravel()), one.ravel())
        assert np.array_equal(marcum_q1(aa[::-1, ::2], bb[::-1, ::2]), one[::-1, ::2])
        assert marcum_q1(aa, bb).shape == (a.size, b.size)
        assert isinstance(marcum_q1(1.0, 2.0), float)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -1.0)
        with pytest.raises(DomainError):
            marcum_q1(np.nan, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, np.inf)

    def test_extreme_arguments_clamp(self):
        assert marcum_q1(60.0, 2.0) == 1.0
        assert marcum_q1(2.0, 60.0) == 0.0

    @given(a=st.floats(0.0, 20.0), b=st.floats(0.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, a, b):
        v = marcum_q1(a, b)
        assert 0.0 <= v <= 1.0

    @given(a1=st.floats(0.0, 10.0), a2=st.floats(0.0, 10.0), b=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_property(self, a1, a2, b):
        lo, hi = sorted((a1, a2))
        assert marcum_q1(lo, b) <= marcum_q1(hi, b) + 1e-12


class TestSingleModeProbs:
    def test_detect_prob_dark_limit(self):
        assert detect_prob(0.0, Threshold(1.0)) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_detect_prob_zero_threshold(self):
        assert detect_prob(1.23, Threshold(0.0)) == 1.0

    def test_detect_prob_half_amplitude(self):
        assert detect_prob(0.707, 1.0) == pytest.approx(Q1_1414_2, rel=1e-10)

    def test_dark_count_values(self):
        assert dark_count_prob(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert dark_count_prob(0.0) == 1.0
        assert dark_count_prob(1.6) == pytest.approx(math.exp(-5.12), rel=1e-15)

    def test_born_expansion_constant_term(self):
        for g in (0.5, 1.0, 2.0):
            assert born_expansion(0.0, g) == pytest.approx(math.exp(-2 * g * g), rel=1e-15)

    def test_born_expansion_remainder_bound(self):
        # next series term at gamma = 1 has coefficient (8/9) e^-2 ~ 0.1203;
        # allow twice that for the higher-order tail
        c = 2.0 * (8.0 / 9.0) * math.exp(-2.0)
        for a in (0.05, 0.1, 0.15, 0.2, 0.25):
            assert abs(born_expansion(a, 1.0) - detect_prob(a, 1.0)) <= c * a**6

    def test_born_expansion_tracks_detection_curve(self):
        assert abs(born_expansion(0.707, 1.0) - detect_prob(0.707, 1.0)) < 0.02

    def test_efficiency_near_unity_at_low_threshold(self):
        assert abs(efficiency(0.8) - 1.0) < 0.02

    def test_efficiency_exceeds_one_below_validity_range(self):
        assert efficiency(0.5) > 1.0

    def test_efficiency_rejects_zero_threshold(self):
        with pytest.raises(SingularThresholdError):
            efficiency(Threshold(0.0))

    def test_poisson_model_dark_limit(self):
        assert poisson_detection_prob(0.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_poisson_model_quadratic_agreement(self):
        # difference is quartic; coefficient (1-d) eta^2 / 2 ~ 0.17 at gamma = 1
        c = 0.34
        for a in np.linspace(0.0, 0.3, 13):
            assert abs(poisson_detection_prob(a, 1.0) - detect_prob(a, 1.0)) <= c * a**4 + 1e-12

    def test_visibility_zero_amplitude(self):
        assert visibility_single(0.0, 1.0) == 0.0

    def test_visibility_monotone_in_threshold(self):
        vals = [visibility_single(1.0, g) for g in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 0.99

    def test_visibility_ordering_in_amplitude(self):
        gs = np.linspace(0.1, 3.0, 25)
        hi = np.array([visibility_single(1.5, g) for g in gs])
        lo = np.array([visibility_single(0.5, g) for g in gs])
        assert np.all(hi >= lo)

    def test_visibility_dual_rejects_zero_threshold(self):
        with pytest.raises(SingularThresholdError):
            visibility_dual(1.0, 0.0)


class TestMultiMode:
    def test_uniform_vacuum_crossing_probs(self):
        state = CoherentVector(0.0, np.full(4, 0.5))
        q = mode_crossing_probs(state, 1.0)
        assert np.all(q == dark_count_prob(1.0))

    def test_bell_direction_crossing_probs(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        alpha, g = 0.9, 1.1
        q = mode_crossing_probs(CoherentVector(alpha, psi), g)
        signal = marcum_q1(math.sqrt(2.0) * alpha, 2.0 * g)
        assert q[0] == pytest.approx(signal, rel=1e-12)
        assert q[3] == pytest.approx(signal, rel=1e-12)
        assert q[1] == q[2] == dark_count_prob(g)

    def test_crossing_probs_bounds(self):
        rng = RngStream(8)
        psi = rng.complex_normals(5)
        psi /= np.linalg.norm(psi)
        q = mode_crossing_probs(CoherentVector(1.7, psi), 0.9)
        delta = dark_count_prob(0.9)
        assert np.all(q >= delta - 1e-15) and np.all(q < 1.0)

    def test_outcome_distribution_single_mode(self):
        dist = outcome_distribution(CoherentVector(0.0, np.array([1.0])), 1.0)
        assert dist.prob((1,)) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert dist.prob((0,)) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    def test_outcome_distribution_beam_splitter_case(self):
        alpha, g = 0.8, 1.0
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        dist = outcome_distribution(CoherentVector(alpha, psi), g)
        q = marcum_q1(math.sqrt(2.0) * alpha, 2.0 * g)
        assert dist.prob((0, 0)) == pytest.approx((1 - q) ** 2, rel=1e-12)
        assert dist.prob((1, 0)) == pytest.approx(q * (1 - q), rel=1e-12)
        assert dist.prob((0, 1)) == pytest.approx((1 - q) * q, rel=1e-12)
        assert dist.prob((1, 1)) == pytest.approx(q * q, rel=1e-12)

    def test_outcome_distribution_normalization_and_marginals(self):
        rng = RngStream(9)
        psi = rng.complex_normals(4)
        psi /= np.linalg.norm(psi)
        dist = outcome_distribution(CoherentVector(1.2, psi), 0.8)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        for i in range(4):
            assert dist.brute_marginal(i) == pytest.approx(dist.q[i], abs=1e-12)

    def test_outcome_distribution_enumeration_cap(self):
        psi = np.zeros(21)
        psi[0] = 1.0
        with pytest.raises(EnumerationLimitError):
            outcome_distribution(CoherentVector(0.0, psi), 1.0)

    def test_outcome_distribution_matches_monte_carlo(self):
        alpha, g, n = 0.9, 1.0, 1_000_000
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        state = CoherentVector(alpha, psi)
        dist = outcome_distribution(state, g)
        a = realize_batch(state, n, RngStream(10))
        bits = detect_batch(a, g)
        idx = bits @ (1 << np.arange(3, -1, -1))
        freq = np.bincount(idx, minlength=16) / n
        for k in range(16):
            p = dist.table[k]
            sigma = math.sqrt(max(p * (1 - p), 1e-300) / n)
            assert abs(freq[k] - p) < 5.0 * sigma + 1e-9

    def test_detect_sample_basics(self):
        from bornsim import AmplitudeSample

        assert np.array_equal(detect_sample(AmplitudeSample(np.zeros(3)), 1.0), [0, 0, 0])
        assert np.array_equal(detect_sample(AmplitudeSample(np.array([2.0, 0.0])), 1.0), [1, 0])

    def test_detect_sample_strict_inequality(self):
        from bornsim import AmplitudeSample

        assert np.array_equal(detect_sample(AmplitudeSample(np.array([1.0])), 1.0), [0])

    def test_detect_frequency_matches_analytic(self):
        alpha, g, n = 0.5, 1.0, 1_000_000
        state = CoherentVector(alpha, np.array([1.0]))
        a = realize_batch(state, n, RngStream(20))
        freq = detect_batch(a, g).mean()
        p = detect_prob(alpha, g)
        assert abs(freq - p) < 5.0 * math.sqrt(p * (1 - p) / n)

    @given(alpha=st.floats(0.0, 3.0), gamma=st.floats(0.05, 3.0),
           d=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_outcome_table_sums_to_one(self, alpha, gamma, d, seed):
        psi = RngStream(seed).complex_normals(d)
        nrm = np.linalg.norm(psi)
        if nrm == 0.0:
            psi = np.eye(d)[0].astype(complex)
        else:
            psi = psi / nrm
        dist = outcome_distribution(CoherentVector(alpha, psi), gamma)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert np.all(dist.table >= 0.0)


class TestPerDetectorThresholds:
    def test_mixed_thresholds_per_mode(self):
        state = CoherentVector(1.0, np.array([1.0, 1.0]) / np.sqrt(2.0))
        q = mode_crossing_probs(state, [1.0, 1.5])
        assert q[0] == pytest.approx(marcum_q1(math.sqrt(2.0), 2.0), abs=1e-14)
        assert q[1] == pytest.approx(marcum_q1(math.sqrt(2.0), 3.0), abs=1e-14)

    def test_detect_sample_with_mixed_thresholds(self):
        from bornsim import AmplitudeSample

        bits = detect_sample(AmplitudeSample(np.array([1.2, 1.2])), [1.0, 1.5])
        assert list(bits) == [1, 0]

    def test_threshold_count_must_match_modes(self):
        state = CoherentVector(0.0, np.array([1.0, 0.0]))
        with pytest.raises(InvalidDimensionError):
            mode_crossing_probs(state, [1.0, 1.0, 1.0])
